(** CUDA-flavoured runtime over the GPU simulator.

    This is the API the SAC backend's generated host code targets: the
    [host2device] / [device2host] instructions of Section VII map to
    {!memcpy_h2d} / {!memcpy_d2h}, and CUDA-WITH-loop kernels map to
    {!launch}.  It is a thin veneer over {!Gpu.Context} with CUDA
    naming and launch-configuration conventions. *)

type t
(** A CUDA "device context". *)

type devptr = Gpu.Buffer.t

val init :
  ?mode:Gpu.Context.exec_mode ->
  ?ordinal:int ->
  ?topology:Gpu.Topology.t ->
  ?device:Gpu.Device.t ->
  unit ->
  t
(** Defaults to the paper's GTX480 on a single-device topology;
    multi-device drivers pass the shared topology and this context's
    ordinal so transfer times route over the right links. *)

val context : t -> Gpu.Context.t

val malloc : t -> name:string -> int -> devptr
(** [malloc t ~name n] allocates [n] ints of device memory. *)

val memcpy_h2d : ?label:string -> t -> dst:devptr -> src:int array -> unit

val memcpy_d2h : ?label:string -> t -> dst:int array -> src:devptr -> unit

type dim3 = { x : int; y : int; z : int }

val dim3 : ?y:int -> ?z:int -> int -> dim3

val blocks_for : grid:Ndarray.Shape.t -> block:dim3 -> dim3
(** The grid-of-blocks a real CUDA launch would use to cover [grid]
    work items with [block]-sized thread blocks (ceiling division);
    informational, used by the code emitter. *)

val launch :
  ?label:string ->
  ?split:int ->
  t ->
  Gpu.Kir.t ->
  grid:Ndarray.Shape.t ->
  args:(string * Gpu.Kir.arg) list ->
  unit
(** Launch a kernel over an n-dimensional global work space.  [split]
    is forwarded to the performance model: the SAC backend passes the
    generator count of the folded WITH-loop the kernel came from. *)

val device_synchronize : t -> unit
(** No-op in the simulator (execution is synchronous); kept so
    generated host code mirrors real CUDA call sequences. *)

val elapsed_us : t -> float

val profile : t -> Gpu.Profiler.row list
