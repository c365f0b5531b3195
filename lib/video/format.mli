(** Video frame formats.

    Dimensions are [(rows, cols)] to match the row-major tensors used
    throughout.  The paper's Figure 2 pipeline is
    HDTV 1920x1080 -> 720x1080 -> DVD 720x480 (width x height); in
    (rows, cols) terms: 1080x1920 -> 1080x720 -> 480x720. *)

type t = { name : string; rows : int; cols : int }

val cif : t
(** Common Intermediate Format, 288x352 (Section III). *)

val qcif : t

val hdtv_1080 : t
(** The evaluation's input format: 1080x1920 (Section VIII). *)

val after_horizontal : t -> t
(** Result of the horizontal filter: columns scaled by 3/8.  Raises
    [Invalid_argument] when the width is not a multiple of 8. *)

val downscaled : t -> t
(** Both filters; HDTV 1080x1920 becomes DVD-resolution 480x720. *)

val shape : t -> Ndarray.Shape.t

val pp : Stdlib.Format.formatter -> t -> unit
