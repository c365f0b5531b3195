(** Per-stream serving state.

    A session is one video stream's fixed configuration: resolution,
    pipeline choice (the SAC→CUDA route or the Gaspard2/MDE→OpenCL
    route) and [--opt] mode, plus the compiled-plan handle every frame
    of the stream reuses.  Compilation happens once per distinct
    [(pipeline, rows, cols, opt)] key in the whole process — sessions
    with equal keys share the handle through a process-wide cache;
    [auto] compiles consult the process-wide tuned-plan cache
    ({!Optimizer.Cache}), and the kernels inside every plan
    additionally hit the existing {!Gpu.Kir.shared_prepare} compile
    cache, so serving a new stream of an already-seen shape costs no
    compilation (and no tuning search) at all.

    The {!key} is also the batcher's coalescing unit: requests from
    sessions with equal keys can ride the same multi-frame launch. *)

type pipeline = Sac | Mde

type key

type t

val create :
  ?opt:Optimizer.Mode.t -> id:int -> pipeline:pipeline -> Video.Format.t -> t
(** [create ~id ~pipeline fmt] compiles (or fetches from the cache) the
    plan for [fmt]-sized frames.  [opt] selects this stream's plan
    optimisation mode (default: the process-wide
    {!Optimizer.Mode.default} at call time); it is threaded to the
    compiler as an argument, never through global state.  Raises
    [Invalid_argument] when [fmt] is not downscalable (rows not a
    multiple of 9 or cols not a multiple of 8). *)

val custom : id:int -> Video.Format.t -> (Video.Frame.t -> Video.Frame.t) -> t
(** A session around an arbitrary frame function — the hook the test
    suite and future non-downscaler workloads use.  Each custom session
    is its own batching key. *)

val id : t -> int

val format : t -> Video.Format.t

val key : t -> key
(** Batching key; equal iff two sessions can share one plan/launch. *)

val pipeline_name : t -> string
(** ["sac"], ["gaspard"] or ["custom"]. *)

val run_frame : t -> Video.Frame.t -> Video.Frame.t * Gpu.Timeline.event list
(** Push one frame through the session's compiled plan on a fresh
    per-frame runtime context (kernel preparations and cost profiles
    are shared process-wide, so this allocates no compilation work) and
    return the scaled frame plus the device events the run recorded. *)

val set_devices : ?profile:Gpu.Device.t -> int -> unit
(** Serve across [n] simulated devices (default profile: GTX480).
    With [n > 1] a process-wide residency-aware scheduler
    ({!Gpu.Sched}) pins each stream to the least-loaded device on its
    first frame and migrates it only when the imbalance exceeds the
    modelled cost of moving the stream's working set over the
    topology's links (each migration counted as [serve.migrations]).
    [set_devices 1] restores single-device serving.  Raises
    [Invalid_argument] when [n < 1]. *)

val migrations : unit -> int
(** Stream migrations performed so far ([serve.migrations]). *)
