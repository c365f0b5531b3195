(** Fresh-name supply for program transformations.

    Generated names contain a ['$'], which the lexer rejects, so they
    can never collide with source identifiers. *)

val fresh : string -> string
(** [fresh base] is a new name derived from [base]. *)
