(** OpenCL spellings of {!Gpu.Context}.

    Kept only for the repository benchmark ([perfbench/perf.ml]), which
    creates and reads the Gaspard2 route's device through these names.
    Everything else creates its device with {!Gpu.Context.create}. *)

type context = Gpu.Context.t

val create_context :
  ?mode:Gpu.Context.exec_mode ->
  ?ordinal:int ->
  ?topology:Gpu.Topology.t ->
  ?device:Gpu.Device.t ->
  unit ->
  context
(** = {!Gpu.Context.create} *)

val elapsed_us : context -> float
(** = {!Gpu.Context.elapsed_us} *)
