(** Static shape inference.

    A best-effort analysis: given shapes for the free variables, infer
    the shape of an expression where it is statically determined.  The
    optimiser only transforms code whose shapes resolve, so partial
    knowledge degrades optimisation, never correctness. *)

type env = (string * int array) list
(** Variable to shape; scalars map to [[||]]. *)

val of_typ : Ast.typ -> int array option
(** Shapes of declared parameter types ([int[1080,1920]] and [int]
    resolve; [int[.]] and [int[*]] do not). *)

val expr : env -> Ast.expr -> int array option

val with_frame : env -> Ast.with_loop -> int array option
(** The frame (index space) shape of a with-loop: the genarray shape
    argument, or the modarray source's shape. *)

val after_stmt : env -> Ast.stmt -> env
(** Extend the environment with the shapes a statement binds. *)

val after_stmts : env -> Ast.stmt list -> env
