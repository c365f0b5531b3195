(** Strided (affine) shapes of kernel store addresses.

    Recovers, per [Store] statement of a {!Gpu.Kir} kernel, the set of
    linear addresses the launch writes as a strided set
    [base + sum coeff_i * [0, count_i)] with one stride per (possibly
    split) grid dimension — including zero-coefficient strides, which
    record that several work-items write the same address.  Grid ids
    divided or reduced by a literal width [w] are decomposed into
    quotient/remainder variables, and [mod m] is dropped when the
    operand interval already lies inside [0, m), which covers both the
    SAC kernelizer's blocked index bindings and the MDE tiler
    addresses. *)

type var =
  | G of int  (** grid id of dimension [d] *)
  | Q of int * int  (** [gid d / w]: quotient block of a split dimension *)
  | R of int * int  (** [gid d mod w]: remainder within a split block *)

type form = { const : int; terms : (var * int) list }
(** Affine form [const + sum coeff_i * var_i] of an index expression. *)

val const_form : int -> form

val sub_forms : form -> form -> form

exception Not_affine

val collect_splits : Gpu.Kir.t -> (int, int) Hashtbl.t
(** Pass 1 of extraction: the width by which each grid dimension is
    split ([gid/w] or [gid mod w] with a literal [w >= 2]).  Raises
    {!Not_affine} on conflicting widths. *)

val form_of :
  grid:int array ->
  splits:(int, int) Hashtbl.t ->
  env:(string * (form * bool)) list ->
  exact:bool ref ->
  Gpu.Kir.expr ->
  form
(** Pass 2: linear form of an expression under the split map, with an
    environment of let-bound forms (each tagged exact).  Clears [exact]
    on truncated split blocks; raises {!Not_affine} on parameters,
    reads and non-affine operators. *)

type sset = {
  base : int;
  strides : (int * int) list;  (** (coeff, count) per grid variable *)
  events : int;  (** number of store events = product of counts *)
  exact : bool;
      (** the set equals the addresses written; inexact sets (truncated
          split blocks, stores under [If]) over-approximate and must not
          be used to claim definite races *)
  lo : int;
  hi : int;  (** value range *)
}

val store_sets : grid:int array -> Gpu.Kir.t -> (string * sset) list option
(** One [(buffer, set)] per [Store] statement in program order, or
    [None] when some store address is not recognisably affine (the
    race checker then falls back to concrete enumeration). *)

type verdict = Proved | Refuted of string | Unknown

val self_injective : sset -> verdict
(** Do distinct work-items write distinct addresses?  A zero stride is
    refuted outright; otherwise {!Ndarray.Linalg.injective} decides it
    exactly, and [Unknown] means its node budget ran out (or the set is
    inexact and a collision exists). *)

val disjoint : sset -> sset -> verdict
(** Are the two address sets disjoint?  Decided by
    {!Ndarray.Linalg.meet}.  [Refuted] names a common address and needs
    both sets exact; [Unknown] otherwise, or when the node budget runs
    out. *)

val pp_sset : Format.formatter -> sset -> unit
