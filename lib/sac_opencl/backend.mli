(** SAC -> OpenCL: the paper's two GPU programming models from the same
    compiler.

    The paper maps SAC to CUDA and ArrayOL to OpenCL and notes that
    "despite the differences ... in the final GPU-specific targets,
    performance benefits of both approaches are comparable".  This
    module closes the square: compiled SAC plans are target-neutral
    ({!Sac_cuda.Plan.t} holds kernel IR), so the same plan is emitted
    as [.cl] + host [.cpp] + [Makefile] sources.  The host program
    comes from the one host walk ({!Sac_cuda.Host_walk}), so it is the
    one {!Sac_cuda.Exec.run} executes. *)

type sources = { cl : string; host : string; makefile : string }

val sources : name:string -> Sac_cuda.Plan.t -> sources
(** The generated translation units.  Host blocks of generic programs
    appear in the host program as a comment with their statement
    count. *)
