(** RGB <-> YCbCr conversion (ITU-R BT.601, full range).

    H.263 video is coded in YCbCr; the paper's downscaler filters "each
    pixel of different colour space" per channel, so the same plane
    filters apply unchanged after conversion.  Integer arithmetic with
    the usual fixed-point coefficients; round-tripping a pixel is exact
    to within +/- 2 per component (property-tested). *)

val rgb_to_ycbcr : Frame.t -> Frame.t
(** The result reuses the [r]/[g]/[b] slots as Y/Cb/Cr. *)

val ycbcr_to_rgb : Frame.t -> Frame.t

val y_of_rgb : r:int -> g:int -> b:int -> int
(** Luma of one pixel (0..255). *)
