(** SAC -> Metal: the same compiled plans on a third GPU programming
    model.

    Compiled SAC plans are target-neutral ({!Sac_cuda.Plan.t} holds
    kernel IR), so the plan {!Sac_cuda.Exec.run} executes also prints
    as a [.metal] translation unit plus metal-cpp host program and
    Makefile, from the same host walk ({!Sac_cuda.Host_walk}). *)

type sources = { metal : string; host : string; makefile : string }

val sources : name:string -> Sac_cuda.Plan.t -> sources
(** The generated translation units.  Host blocks of generic programs
    appear in the host program as a comment with their statement
    count, as in the OpenCL emitter. *)
