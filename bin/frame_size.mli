(** The [--rows]/[--cols] flags shared by the drivers.

    The H.263 downscaler turns each 9x8 tile into a 4x3 one, so a
    frame must be a positive multiple of 9 rows and 8 columns. *)

val term : rows:int -> cols:int -> (int * int) Cmdliner.Term.t
(** Both flags with the given defaults; a frame size the downscaler
    cannot take is a command-line error, reported as "rows must be a
    positive multiple of 9 and cols a positive multiple of 8". *)
