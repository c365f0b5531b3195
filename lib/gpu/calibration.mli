(** Timing-model constants and their derivations.

    Every constant here is either a published GTX480 datum or is fitted
    to the paper's own measurements (Tables I and II) with the
    arithmetic spelled out in the implementation.  Nothing else in the
    repository hard-codes timing numbers. *)

val pcie_h2d_gbs : float
(** Effective host-to-device bandwidth.  Table I: 900 copies of one
    1080x1920 int32 colour plane (8.29 MB) took 1 391 670 us, i.e.
    1546 us per copy ~= 5.36 GB/s. *)

val pcie_d2h_gbs : float
(** Effective device-to-host bandwidth.  Table I: 900 copies of one
    480x720 int32 plane (1.38 MB) took 197 057 us, i.e. 219 us per
    copy ~= 6.31 GB/s. *)

val kernel_launch_us : float
(** Fixed per-launch cost (driver + context).  ~10 us is the widely
    reported Fermi-era figure; it is what makes the SAC backend's
    one-kernel-per-generator scheme measurably slower (Section VIII-C). *)

val memcpy_overhead_us : float
(** Fixed per-[cudaMemcpy]/[clEnqueue*Buffer] setup cost. *)

val memory_latency_us : float
(** Un-hidden memory latency charged to under-occupied kernels
    (scaled by [1 - occupancy]). *)

val base_efficiency_row : burst:float -> float
(** Fraction of peak DRAM bandwidth achieved by kernels whose global
    reads walk the minor (contiguous) dimension, as a function of the
    mean per-thread burst length: [0.147 / (1 + burst/16)].  Fitted
    jointly to the horizontal-filter kernels of Tables I (Gaspard2,
    11-element bursts, 15.5 GB/s effective) and II (SAC, 6-element
    bursts, 19.3 GB/s effective). *)

val base_efficiency_column : float
(** Same for kernels walking the major (strided) dimension, fitted
    between Table I's vertical kernels (13.2 GB/s) and Table II's
    (11.4 GB/s): 12.5 GB/s => 0.0706. *)

val base_efficiency_gather : float
(** Irregular (data-dependent or large-stride) access. *)

val split_factor : int -> float
(** [split_factor k] is the bandwidth scale for a task split into [k]
    kernels; [split_factor 1 = 1.0]. *)

val host_int_ops_per_us : float
(** Throughput of the paper's host CPU (Intel i7-930, 2.8 GHz, one
    core) on the scalar interpolation loops, in abstract interpreter
    operations per microsecond.  Fitted so that the sequential
    non-generic horizontal filter lands near Figure 9's ~4.3 s for 300
    frames. *)

val host_cold_update_ns : float
(** Per-store cold-memory penalty for host tiler loops operating on
    freshly downloaded data (drives Figure 9's generic-variant
    slowdown). *)
