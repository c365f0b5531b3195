(** Reference (golden) H.263 downscaler.

    The definitional semantics every pipeline in this repository must
    reproduce bit-exactly: the SAC interpreter, the SAC->CUDA compiled
    kernels and the Gaspard2->OpenCL chain are all cross-checked
    against this module.

    Geometry (Sections III, VI and Figure 10):
    - the {b horizontal} filter turns each packet of 8 columns into 3,
      reading an 11-point pattern; output column [3r+k] is interpolated
      from the 6 input columns starting at offset {!h_window_offsets}[k]
      of the pattern anchored at column [8r];
    - the {b vertical} filter turns each packet of 9 rows into 4,
      reading a 14-point pattern with window offsets
      {!v_window_offsets}.

    Pattern accesses wrap modulo the frame shape, as all ArrayOL tiler
    accesses do; the interpolation of a window [w] is the paper's
    [sum(w)/6 - sum(w) mod 6] (Figure 5). *)

open Ndarray

val h_pack_out : int  (** 3 *)

val window_len : int  (** 6 *)

val h_window_offsets : int array  (** [|0; 2; 5|] *)

val interpolate : int -> int
(** [interpolate sum] is [sum / 6 - sum mod 6], the paper's Figure 5
    window combination. *)

val horizontal : int Tensor.t -> int Tensor.t
(** [rows x 8n] plane to [rows x 3n].  Raises [Invalid_argument] when
    the width is not a positive multiple of 8. *)

val vertical : int Tensor.t -> int Tensor.t
(** [9n x cols] plane to [4n x cols]. *)

val plane : int Tensor.t -> int Tensor.t
(** Both filters in sequence. *)

val frame : Frame.t -> Frame.t

val input_tilers : Format.t -> Tiler.spec * Tiler.spec
(** The (horizontal, vertical) input tiler specifications for frames of
    the given format — Figure 10's boxes, parameterised by format. *)

val output_tilers : Format.t -> Tiler.spec * Tiler.spec
