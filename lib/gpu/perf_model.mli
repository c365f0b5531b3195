(** Analytic timing model.

    Converts the work a kernel or copy actually performs (counted by
    executing the generated code) into simulated GTX480 time.  Kernels
    follow a roofline: a fixed launch cost plus the maximum of the
    memory-bound and compute-bound times, where effective memory
    bandwidth depends on the read-access pattern and on how many
    kernels the originating task was split into (lost L1 reuse, the
    effect driving the paper's Section VIII-C comparison). *)

val kernel_time_us :
  Device.t ->
  threads:int ->
  cost:Kir.cost ->
  split:int ->
  float
(** [split] is the number of kernels the logical task was divided into
    (1 for the Gaspard2 chain, the generator count for the SAC
    backend). *)

val effective_bandwidth_gbs :
  ?burst:float ->
  Device.t ->
  access:[ `Row | `Column | `Gather ] ->
  split:int ->
  float
(** [burst] is the mean per-thread consecutive-read run length
    (default 1). *)

val divergence_factor : Kir.cost -> float
(** Compute-side multiplier charged for warp divergence: [1 +
    divergent_ops / ops_per_thread] when the cost carries a static
    {!Kir.access_summary} with divergent branches, 1 otherwise.
    {!kernel_time_us} applies it to the compute term only, so
    memory-bound kernels are unaffected. *)

val staged_bandwidth_gbs :
  Device.t -> split:int -> bank_conflict:int -> float
(** What-if effective bandwidth of staging a kernel's loads through the
    modelled 32-bank scratchpad: a fully coalesced burst-1 global
    stream divided by the shared-memory replay factor [bank_conflict]
    (clamped to at least 1).  Used by the perf linter to rank
    "scratchpad stage would absorb overlap" findings and by the
    ROADMAP's overlapped-tiling profitability reasoning. *)

val memcpy_time_us :
  Device.t -> bytes:int -> dir:[ `H2d | `D2h ] -> float

val host_loop_time_us : ops:float -> float
(** Sequential host execution of [ops] abstract scalar operations on the
    paper's i7-930 (single core). *)

val host_block_time_us : ops:float -> updates:float -> float
(** Host tiler loops operating on freshly downloaded (cold) data:
    compute time plus a per-store cold-memory penalty. *)
