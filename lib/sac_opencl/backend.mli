(** SAC -> OpenCL: the paper's two GPU programming models from the same
    compiler.

    The paper maps SAC to CUDA and ArrayOL to OpenCL and notes that
    "despite the differences ... in the final GPU-specific targets,
    performance benefits of both approaches are comparable".  This
    module closes the square: compiled SAC plans are target-neutral
    ({!Sac_cuda.Plan.t} holds kernel IR), so the same plan can execute
    on the OpenCL facade's device and be emitted as [.cl] + host
    [.cpp] + [Makefile] sources.  Both come from the one host walk
    ({!Sac_cuda.Host_walk}): the host program printed here is the one
    {!run} executes. *)

val run :
  ?host_mode:[ `Execute | `Estimate ] ->
  ?liveness:bool ->
  ?plane_tag:string ->
  Opencl.Runtime.context ->
  Sac_cuda.Plan.t ->
  args:(string * int Ndarray.Tensor.t) list ->
  Sac_cuda.Exec.outcome
(** {!Sac_cuda.Exec.run_context} on the OpenCL context's device, so
    bit-exact with {!Sac_cuda.Exec.run} (property-tested); events land
    on the OpenCL context's timeline. *)

type sources = { cl : string; host : string; makefile : string }

val sources : name:string -> Sac_cuda.Plan.t -> sources
(** The generated translation units.  Host blocks of generic programs
    appear in the host program as a comment with their statement
    count. *)
