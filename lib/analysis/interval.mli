(** Integer intervals with saturating arithmetic and C [Div]/[Mod].

    Bounds clamp at [+-2^60], which stands in for infinity.  All
    operations are sound over-approximations of the corresponding
    {!Gpu.Kir} integer semantics (truncating division, remainder sign
    following the dividend). *)

type t = private { lo : int; hi : int }

val make : int -> int -> t
(** [make lo hi].  Raises [Invalid_argument] when [lo > hi]. *)

val of_int : int -> t

val top : t

val range_excl : int -> int -> t
(** [range_excl lo hi] is the interval of a loop or grid variable
    ranging over [lo <= v < hi] ([of_int lo] when the range is empty). *)

val is_const : t -> bool

val const_value : t -> int option

val contains : t -> int -> bool

val subset : t -> t -> bool

val join : t -> t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div_c : t -> t -> t
(** C division (truncation towards zero).  When the divisor interval is
    exactly zero the result is [top]; the caller reports the division
    by zero separately. *)

val mod_c : t -> t -> t
(** C remainder (sign follows the dividend). *)

val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t
val eq : t -> t -> t
val ne : t -> t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

val pp : Format.formatter -> t -> unit
