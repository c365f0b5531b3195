(** Dense multidimensional arrays in row-major order.

    This is the value representation shared by the SAC interpreter, the
    ArrayOL reference semantics, the GPU simulator's host buffers and the
    video substrate.  Polymorphic in the element type; the paper's
    programs use [int] throughout (24-bit RGB samples stored as ints). *)

type 'a t

val create : Shape.t -> 'a -> 'a t
(** [create shape v] is a tensor filled with [v]. *)

val init : Shape.t -> (Index.t -> 'a) -> 'a t
(** Elements computed in row-major order.  The index array passed to
    the callback is reused (advanced in place) across cells: read it,
    but do not retain or mutate it.  Callbacks that need to keep the
    index must copy it themselves. *)

val init_lin : Shape.t -> (int -> 'a) -> 'a t
(** [init_lin shape f] fills the tensor from the row-major linear
    offset: [f] receives [0 .. size-1].  The allocation-free variant
    for hot loops that can do their own index arithmetic. *)

val scalar : 'a -> 'a t

val shape : 'a t -> Shape.t

val rank : 'a t -> int

val size : 'a t -> int

val data : 'a t -> 'a array
(** The underlying row-major buffer.  Mutating it mutates the tensor;
    the GPU simulator uses this for zero-copy host<->device staging. *)

val of_array : Shape.t -> 'a array -> 'a t
(** Adopts (does not copy) the array.  Raises [Invalid_argument] when
    the length does not match the shape size. *)

val get : 'a t -> Index.t -> 'a

val set : 'a t -> Index.t -> 'a -> unit

val get_wrapped : 'a t -> Index.t -> 'a
(** [get] after component-wise positive modulo by the shape — array
    accesses in tiler arithmetic are always wrapped ([mod s_array]). *)

val get_lin : 'a t -> int -> 'a

val copy : 'a t -> 'a t

val map : ('a -> 'b) -> 'a t -> 'b t

val mapi : (Index.t -> 'a -> 'b) -> 'a t -> 'b t
(** Same reused-index contract as {!init}. *)

val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool

val reshape : 'a t -> Shape.t -> 'a t
(** Same data, new shape of identical size. *)

val sub_tile : 'a t -> outer:Index.t -> inner_rank:int -> 'a t
(** For a tensor of shape [outer_shape ++ inner_shape], extract the
    inner tile addressed by [outer] (a fresh tensor of the inner shape).
    This is how the paper's intermediate arrays of shape
    [repetition ++ pattern] are consumed tile by tile. *)

val set_tile : 'a t -> outer:Index.t -> 'a t -> unit
(** Inverse of {!sub_tile}: write a tile into a [outer ++ inner] tensor. *)

val of_list_2d : 'a list list -> 'a t

val to_list : 'a t -> 'a list

val of_list_1d : 'a list -> 'a t

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
