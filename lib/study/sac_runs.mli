(** Timings for the four SAC downscaler implementations (Figure 9).

    - Sequential variants are charged by interpreting the *optimised*
      program on a small plane (counting abstract scalar operations)
      and scaling linearly to the target geometry — per-pixel work is
      constant, so the count scales exactly — then converting through
      the host-CPU model.
    - CUDA variants run their compiled plan once per plane in
      timing-only mode; the filter time excludes the unavoidable frame
      upload and result download (those are charged separately by the
      Table II experiment), but includes the intermediate transfers and
      host tiler time that penalise the generic variant. *)

type variant = Seq_generic | Seq_nongeneric | Cuda_generic | Cuda_nongeneric

type filter = H | V

val variant_name : variant -> string

val seq_us : generic:bool -> filter -> Scale.t -> float
(** Total modelled time over all frames and planes. *)

val time_us : variant -> filter -> Scale.t -> float

val full_pipeline_profile :
  generic:bool -> Scale.t -> Gpu.Profiler.row list * float
(** Table II: run the complete (H then V) CUDA pipeline per plane and
    frame at the given scale; returns cudaprof-style rows (kernels
    labelled "H. Filter"/"V. Filter", plus both copy directions) and
    the modelled host time. *)
