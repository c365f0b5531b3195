(** Constant propagation, constant folding and bound normalisation.

    After inlining, the tiler parameters of the paper's generic
    functions are literals; this pass pushes them through the body so
    that [MV]/[CAT]/[shape] applications on constants evaluate,
    with-loop frames become literal shape vectors and dot bounds are
    rewritten to explicit inclusive-lower / exclusive-upper literal
    bounds — the "specialisation" visible in the paper's Figure 8. *)

val eval_closed : Ast.expr -> Value.t option
(** Evaluate an expression with no free variables and no with-loops;
    [None] when it is not closed or evaluation fails. *)

val fundef : Ast.fundef -> Ast.fundef
(** Simplify a whole (inlined) function body. *)
