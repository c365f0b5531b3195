(** CUDA spellings of {!Gpu.Context}.

    Kept only for the repository benchmark ([perfbench/perf.ml]), which
    creates and reads the SAC route's device through these names.
    Everything else creates its device with {!Gpu.Context.create}. *)

type t = Gpu.Context.t

val init :
  ?mode:Gpu.Context.exec_mode ->
  ?ordinal:int ->
  ?topology:Gpu.Topology.t ->
  ?device:Gpu.Device.t ->
  unit ->
  t
(** = {!Gpu.Context.create} *)

val elapsed_us : t -> float
(** = {!Gpu.Context.elapsed_us} *)
