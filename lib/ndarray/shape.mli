(** Array shapes.

    A shape is a vector of non-negative extents, one per dimension.  The
    empty shape [[||]] denotes a scalar.  Shapes are used pervasively by
    the tensor module, the tiler algebra and both compiler pipelines, so
    this module fixes the conventions once: row-major element order and
    extents [>= 0]. *)

type t = int array

val scalar : t
(** The rank-0 shape. *)

val rank : t -> int
(** Number of dimensions. *)

val size : t -> int
(** Total number of elements, i.e. the product of all extents.  The size
    of the scalar shape is 1. *)

val is_valid : t -> bool
(** All extents are non-negative. *)

val equal : t -> t -> bool

val concat : t -> t -> t
(** [concat s1 s2] is the shape of an array of [s1]-indexed tiles of
    shape [s2]; used for the repetition-space ++ pattern-shape arrays the
    paper's tilers build. *)

val take : int -> t -> t
(** [take n s] is the first [n] extents of [s].  Raises
    [Invalid_argument] if [n] exceeds the rank. *)

val drop : int -> t -> t
(** [drop n s] is [s] without its first [n] extents. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
