(** Execution of a generated Gaspard2 program: the host program
    {!Codegen.host_steps} prints, run on the simulated device through
    {!Gpu.Host_run} (the Gaspard2 counterpart of [Sac_cuda.Exec]).
    Behind {!Chain.run} and {!Autotune.modelled_us}. *)

exception Run_error of string

val run :
  ?label_of:(string -> string) ->
  ?liveness:bool ->
  Opencl.Runtime.context ->
  Codegen.generated ->
  inputs:(string * int Ndarray.Tensor.t) list ->
  (string * int Ndarray.Tensor.t) list
(** Boundary inputs are written to device buffers
    ([clEnqueueWriteBuffer]), kernels run level by level in schedule
    order, boundary outputs are read back.  [label_of] maps a task name
    to its profiling label (default: the task name); [liveness]
    (default [false]) releases each buffer after its last schedule
    level.  Raises {!Run_error} on a missing or mis-shaped input or a
    broken dataflow. *)
