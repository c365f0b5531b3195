(** Simulated execution of compiled plans.

    Runs the host program {!Host_walk.of_plan} derives (the one the
    emitters print) through {!Gpu.Host_run}: uploads, downloads,
    allocations and kernel launches land on the device's timeline, and
    the plan's host work (host blocks, constant arrays, copies) runs
    here.  Host blocks run through the SAC interpreter and are charged
    to the host CPU model. *)

type outcome = {
  result : int Ndarray.Tensor.t;
  host_us : float;  (** modelled host time for host blocks *)
  kernel_launches : int;
}

val run :
  ?host_mode:[ `Execute | `Estimate ] ->
  ?liveness:bool ->
  ?plane_tag:string ->
  Gpu.Context.t ->
  Plan.t ->
  args:(string * int Ndarray.Tensor.t) list ->
  outcome
(** Execute a plan on a simulated device.  Plans are target-neutral:
    the CUDA, OpenCL and Metal emitters print the same host program
    this runs.  Device events (kernels and copies) are recorded on the
    context's timeline; the returned tensor is the program result,
    bit-exact with the interpreter.  Arguments are not copied; the
    result is a fresh tensor even when the program returns an
    argument.  Raises [Invalid_argument] on missing or mis-shaped
    arguments.  [liveness] (default [false]) frees each device buffer
    right after its last use ({!Host_walk.of_plan}), enabled by callers
    running optimised plans ({!Optimizer.Mode.liveness}).  [`Estimate]
    (for timing-only runs at paper scale) charges host blocks by
    {!Host_cost} sampling instead of full interpretation; the returned
    tensor is then not meaningful.  Default [`Execute].  [plane_tag] marks this run's kernel launches
    as belonging to one colour plane ([kernel@tag] in the profile), so
    the profiler reports per-frame rounds the way the paper's tables
    do. *)
