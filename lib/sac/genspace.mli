(** Resolved generator index spaces.

    A generator [(lb <= iv < ub step s width w)] denotes the lattice
    set [{ lb + s*k + t | 0 <= t < w, within bounds }] in each
    dimension.  This module resolves the AST form (dot bounds,
    inclusive/exclusive comparisons, optional step/width) into explicit
    integer bounds and provides membership, iteration and cardinality —
    shared by the interpreter, the WITH-loop folder and the CUDA
    backend. *)

type t = {
  lb : int array;  (** inclusive *)
  ub : int array;  (** exclusive *)
  step : int array;
  width : int array;
}

val resolve :
  frame:int array -> eval:(Ast.expr -> Value.t) -> Ast.gen -> t
(** Dot lower bounds become zeros, dot upper bounds the frame shape;
    inclusive numeric bounds are shifted to the half-open convention.
    Raises [Value.Value_error] on rank mismatches or non-positive
    steps. *)

val of_bounds : ?step:int array -> ?width:int array -> int array -> int array -> t
(** [of_bounds lb ub]: explicit construction (default step and width
    are all-ones). *)

val rank : t -> int

val covers : t -> int array -> bool

val iter : t -> (int array -> unit) -> unit
(** Visit exactly the member indices, row-major. *)

val count : t -> int

val dim_counts : t -> int array
(** Number of member positions along each dimension; the product equals
    {!count}. *)

(** How a kernel thread id along one dimension maps to the member
    index: [idx = lb + step * tid] when the width is 1, or
    [idx = lb + step * (tid / width) + tid mod width] for full blocks. *)
type dim_map =
  | Affine of { lb : int; step : int }
  | Blocked of { lb : int; step : int; width : int }

val dim_map : t -> int -> dim_map option
(** [None] when the last block is truncated by the upper bound, which
    the closed-form mapping cannot express. *)
