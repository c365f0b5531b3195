(** SAC builtin functions.

    The paper's tiler code relies on [shape], [dim], [MV]
    (matrix-vector product) and [CAT] (matrix column concatenation,
    so that [CAT(paving, fitting) . (rep ++ pat)] computes
    [paving.rep + fitting.pat]). *)

val is_builtin : string -> bool

val apply : string -> Value.t list -> Value.t
(** Raises [Value.Value_error] on arity or type errors and [Not_found]
    for unknown names. *)
