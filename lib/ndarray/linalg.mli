(** Small integer linear algebra for tiler arithmetic.

    ArrayOL fitting and paving matrices are tiny (rank-of-array rows by
    rank-of-pattern/repetition columns), so everything here is exact
    integer arithmetic on [int array array] in row-major layout. *)

type mat = int array array
(** [m.(i).(j)] is row [i], column [j].  All rows must have equal
    length; constructors enforce this. *)

val of_lists : int list list -> mat

val to_lists : mat -> int list list

val rows : mat -> int

val cols : mat -> int

val is_rectangular : mat -> bool

val identity : int -> mat

val transpose : mat -> mat

val mv : mat -> int array -> int array
(** Matrix-vector product; the [MV] builtin of the paper's SAC code. *)

val mm : mat -> mat -> mat

val cat_cols : mat -> mat -> mat
(** Horizontal concatenation [\[A | B\]]; the [CAT] builtin.  The paper
    computes index offsets as [CAT(paving, fitting) . (rep ++ pat)]. *)

val column_nonzeros : mat -> int -> (int * int) list
(** The nonzero entries [(row, value)] of column [j], top to bottom. *)

val pp : Format.formatter -> mat -> unit

(** {1 Bounded lattice search}

    One exact decision procedure over box-bounded integer maps, behind
    both tiler covers and kernel store-set disjointness.  Each question
    has a fixed node budget; past it the answer is [Gave_up]. *)

type search = Solution of int array | No_solution | Gave_up

val meet : int * (int * int) list -> int * (int * int) list -> search
(** [meet (b1, s1) (b2, s2)]: do the strided sets [b + sum c_i [0, n_i)],
    one [(c_i, n_i)] per column, share a value?  A [Solution k] gives
    the columns of [s1], then of [s2]. *)

val injective : ?modulus:int -> (int * int) list -> search
(** Is [k |-> sum c_i k_i] over [0 <= k_i < n_i] injective (modulo
    [modulus] when positive) for the given [(c_i, n_i)]?  A [Solution d]
    is a collision: [d <> 0], [|d_i| < n_i], [sum c_i d_i] a multiple of
    the modulus (zero without one). *)
