(** Index vectors into multidimensional arrays.

    An index has the same rank as the shape of the array it addresses.
    Linearisation is row-major (last dimension varies fastest), matching
    both the CUDA code the SAC backend emits and the OpenCL code the
    Gaspard2 chain emits. *)

type t = int array

val zeros : int -> t

val add : t -> t -> t

val sub : t -> t -> t

val in_bounds : Shape.t -> t -> bool
(** Every component [i] satisfies [0 <= i < extent]. *)

val wrap : Shape.t -> t -> t
(** Component-wise positive modulo by the shape, the [mod s_array] of the
    paper's tiler formulae.  Extents must be positive. *)

val ravel : Shape.t -> t -> int
(** Row-major linear offset of an in-bounds index. *)

val unravel : Shape.t -> int -> t
(** Inverse of {!ravel}. *)

val iter : Shape.t -> (t -> unit) -> unit
(** Iterate over all indices of a shape in row-major order.  The index
    passed to the callback is a fresh array each time. *)

val next_in_place : Shape.t -> t -> bool
(** Advance an index to its row-major successor, in place.  Returns
    [false] (leaving the index at all-zeros) when it wraps past the end.
    Allocation-free iteration for hot loops. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
