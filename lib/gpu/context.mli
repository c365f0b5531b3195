(** A live simulated device: memory, execution and a timeline.

    The one device handle of both routes: SAC plans
    ([Sac_cuda.Exec.run]) and Gaspard2 programs ([Mde.Chain.run]) run
    their host programs on a context, which executes kernels
    functionally (results are bit-exact) and charges modelled time to
    its {!Timeline}. *)

type exec_mode =
  | Sequential
  | Parallel of int  (** number of OCaml domains for kernel execution *)
  | Timing_only
      (** Model sizes only: kernels, transfers and allocations are
          priced and recorded exactly as in the executing modes, but
          buffers are storeless ({!Buffer.stored} is [false]), nothing
          executes and nothing is copied.  Memory accounting
          ({!allocated_bytes}, {!peak_bytes}, {!Out_of_memory}) is
          unchanged, and a read-back yields zeros.  A kernel whose
          cost depends on loaded data is profiled over zeros, which is
          what every unwritten buffer would hold.  No shipped kernel
          takes that route: over the smoke bench and the whole test
          suite, only hand-written test kernels reach it.  Used by cost-guided search and the paper-scale
          experiments, whose correctness is separately verified at
          representative sizes. *)

type t

val set_default_mode : exec_mode -> unit
(** The mode {!create} uses when no explicit [?mode] is given
    (initially [Sequential]).  The CLI [--domains N] flags set
    [Parallel n] here so every functional execution in the process
    runs on the shared {!Pool}. *)

val default_mode : unit -> exec_mode

val create :
  ?mode:exec_mode ->
  ?ordinal:int ->
  ?topology:Topology.t ->
  ?device:Device.t ->
  unit ->
  t
(** A context simulates one device of a machine.  [ordinal] (default
    0) is its position in [topology] (default [Topology.single device]);
    [device] defaults to the topology's device at [ordinal], and to the
    paper's {!Device.gtx480} when neither is given.  Transfer times are
    routed through the topology's links and the per-device
    [gpu.dev<ordinal>.*] metrics are registered here.
    Raises [Invalid_argument] when [ordinal] is outside the topology. *)

val device : t -> Device.t

val ordinal : t -> int

val topology : t -> Topology.t

val timeline : t -> Timeline.t

val allocated_bytes : t -> int

val peak_bytes : t -> int
(** High-water mark of {!allocated_bytes} over the context's lifetime.
    With the fusion/liveness pass on, buffers are freed after their
    last use, so this tracks the plan's working set rather than its
    total footprint. *)

exception Out_of_memory of string

val alloc : t -> name:string -> int -> Buffer.t
(** [alloc ctx ~name len] allocates a device buffer of [len] ints,
    zero-filled (storeless in {!Timing_only}).  Raises {!Out_of_memory} when the device memory
    budget would be exceeded. *)

val free : t -> Buffer.t -> unit
(** Return a buffer to the device allocator.  Raises [Invalid_argument]
    if the buffer is not live in this context (double free, or a buffer
    of another context).  Freed backing stores land on a small
    size-indexed arena and are recycled by {!alloc} (counted as
    [fusion.buffers_reused]). *)

val h2d : ?label:string -> t -> Buffer.t -> int array -> unit
(** Copy a host array into a device buffer, recording a
    [memcpyHtoDasync] event.  Lengths must match.  Copies nothing into
    a storeless buffer. *)

val d2h : ?label:string -> t -> Buffer.t -> int array -> unit
(** Copy a device buffer into a host array, recording a
    [memcpyDtoHasync] event.  A storeless buffer reads as zeros. *)

val record_d2d :
  ?label:string -> t -> detail:string -> src:int -> bytes:int -> unit
(** Record a device-to-device migration *into* this context's device
    from device ordinal [src]: a [Memcpy_d2d] event on this timeline
    whose duration is the topology's peer-link (or two-hop) transfer
    time, counted under [gpu.p2p_copies]/[gpu.p2p_bytes].  The
    receiving device pays for the migration, which is what the
    scheduler charges when it moves work.  Raises [Invalid_argument]
    when [src] is this context's own ordinal.  Used by
    {!Cluster.transfer}; the data blit itself happens there. *)

val launch :
  ?label:string ->
  ?split:int ->
  t ->
  Kir.t ->
  grid:Ndarray.Shape.t ->
  args:(string * Kir.arg) list ->
  unit
(** Execute a kernel over [grid], recording a kernel event whose
    duration comes from {!Perf_model}.  [label] is the profiling group
    (defaults to the kernel name); [split] is the number of kernels the
    originating task was divided into (defaults to 1). *)

type cache_stats = {
  compiles : int;  (** launches that had to prepare their kernel *)
  compile_hits : int;  (** launches served from this context's cache *)
  cost_profiles : int;  (** cost profiles computed (or fetched globally) *)
  cost_hits : int;  (** launches whose cost profile was already cached *)
}

val cache_stats : t -> cache_stats
(** Counters for this context's kernel-compilation and cost-profile
    caches.  With caching, [compiles] is once per distinct kernel
    rather than once per launch. *)

val elapsed_us : t -> float
(** Total modelled time accumulated on the timeline. *)

val reset : t -> unit
(** Clear the timeline and the cache statistics, drain the buffer-reuse
    arena and reset {!peak_bytes} to the currently allocated total, so
    back-to-back runs in one process do not report stale high-water
    marks or recycle each other's stores.  Live buffers and the kernel
    caches themselves survive, so a reset context keeps serving
    compile/cost hits. *)
