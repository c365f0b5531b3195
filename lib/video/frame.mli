(** RGB video frames.

    A frame is three rank-2 int tensors (colour planes), pixel values
    0..255 — the "24-bit RGB colour model" of Section III.  The
    downscaler processes each plane independently; both compiler
    pipelines launch one kernel chain per plane. *)

open Ndarray

type channel = R | G | B

type t = { r : int Tensor.t; g : int Tensor.t; b : int Tensor.t }

val init : Format.t -> (channel -> Index.t -> int) -> t

val plane : t -> channel -> int Tensor.t

val channels : channel list
(** [[R; G; B]] in processing order. *)

val channel_name : channel -> string

val format_shape : t -> Shape.t
(** Shape of the planes (all three agree by construction). *)

val map_planes : (channel -> int Tensor.t -> int Tensor.t) -> t -> t

val equal : t -> t -> bool

val max_abs_diff : t -> t -> int
(** Largest per-pixel absolute difference across all planes. *)

val clamp8 : int -> int
(** Clamp to 0..255. *)
