(** OpenCL-flavoured runtime over the GPU simulator.

    The Gaspard2 transformation chain generates OpenCL host code; this
    module provides the platform / context / command-queue surface that
    code targets, backed by the same simulated device as the CUDA
    facade so the two pipelines are compared on identical hardware. *)

type platform

type device

type context

type command_queue

type mem = Gpu.Buffer.t

type program

type kernel

val get_platform_ids : unit -> platform list

val get_device_ids : platform -> device list

val device_spec : device -> Gpu.Device.t

val create_context :
  ?mode:Gpu.Context.exec_mode ->
  ?ordinal:int ->
  ?topology:Gpu.Topology.t ->
  ?device:Gpu.Device.t ->
  unit ->
  context
(** Shorthand combining platform/device discovery for the simulator's
    single GTX480-like device; multi-device drivers pass the shared
    topology and an ordinal, as with [Cuda.Runtime.init]. *)

val create_command_queue : context -> command_queue

val create_buffer : context -> name:string -> int -> mem
(** [create_buffer ctx ~name n]: [n] ints of device memory
    ([clCreateBuffer]). *)

val create_program_with_source : context -> name:string -> Gpu.Kir.t list -> program
(** In the simulator, "source" is kernel IR; [clBuildProgram] checks it
    statically. *)

val build_program : program -> (unit, string) result
(** Runs {!Gpu.Kir.validate} on every kernel; the error string mimics a
    build log. *)

val create_kernel : program -> string -> kernel
(** Raises [Not_found] if no kernel of that name exists in the
    program. *)

val set_args : kernel -> (string * Gpu.Kir.arg) list -> unit

val enqueue_write_buffer :
  ?label:string -> command_queue -> mem -> int array -> unit

val enqueue_read_buffer :
  ?label:string -> command_queue -> mem -> int array -> unit

val enqueue_nd_range_kernel :
  ?label:string ->
  ?split:int ->
  command_queue ->
  kernel ->
  global_work_size:Ndarray.Shape.t ->
  unit
(** Requires {!set_args} first; raises [Invalid_argument] otherwise. *)

val finish : command_queue -> unit
(** [clFinish]: a no-op in the synchronous simulator. *)

val gpu_context : context -> Gpu.Context.t

val elapsed_us : context -> float

val profile : context -> Gpu.Profiler.row list
