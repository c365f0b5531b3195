(** Variable renaming (alpha conversion) used by inlining and folding. *)

type subst = (string * string) list

val bound_names : Ast.stmt list -> string list
(** Every name a statement list binds: assignment targets, for-loop
    variables, and generator pattern/local names (duplicates removed). *)

val freshen : string list -> subst
(** A substitution mapping each name to a fresh one. *)

val stmts : subst -> Ast.stmt list -> Ast.stmt list

val gen : subst -> Ast.gen -> Ast.gen
