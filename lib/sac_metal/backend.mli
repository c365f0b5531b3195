(** SAC -> Metal: the same compiled plans on a third GPU programming
    model.

    Compiled SAC plans are target-neutral ({!Sac_cuda.Plan.t} holds
    kernel IR), so the same plan that runs on the CUDA and OpenCL
    facades' devices also executes on the Metal facade's device —
    bit-exact by construction, since all three run the same host walk
    ({!Sac_cuda.Host_walk}) on one functional evaluator — and prints as
    a [.metal] translation unit plus metal-cpp host program and
    Makefile. *)

val run :
  ?host_mode:[ `Execute | `Estimate ] ->
  ?liveness:bool ->
  ?plane_tag:string ->
  Metal.Runtime.device ->
  Sac_cuda.Plan.t ->
  args:(string * int Ndarray.Tensor.t) list ->
  Sac_cuda.Exec.outcome
(** {!Sac_cuda.Exec.run_context} on the Metal device's context, so
    bit-exact with {!Sac_cuda.Exec.run} and the OpenCL backend
    (asserted in runtest); events land on the Metal device's
    timeline. *)

type sources = { metal : string; host : string; makefile : string }

val sources : name:string -> Sac_cuda.Plan.t -> sources
(** The generated translation units.  Host blocks of generic programs
    appear in the host program as a comment with their statement
    count, as in the OpenCL emitter. *)
