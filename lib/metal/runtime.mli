(** Metal-flavoured device over the GPU simulator.

    The [MTLDevice] the generated metal-cpp host code targets, backed
    by the same simulated {!Gpu.Context} as the CUDA and OpenCL facades
    so all three backends are compared on identical modelled hardware.
    Compiled plans run on its context ([Sac_metal.Backend.run]). *)

type device

val create_system_default_device :
  ?mode:Gpu.Context.exec_mode ->
  ?ordinal:int ->
  ?topology:Gpu.Topology.t ->
  ?device:Gpu.Device.t ->
  unit ->
  device
(** Defaults to the paper's GTX480 on a single-device topology, like
    the other runtime facades. *)

val device_spec : device -> Gpu.Device.t

val gpu_context : device -> Gpu.Context.t

val elapsed_us : device -> float

val profile : device -> Gpu.Profiler.row list
