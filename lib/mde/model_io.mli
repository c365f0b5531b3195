(** Textual (de)serialisation of MARTE models.

    Gaspard2 keeps its models in UML/XMI files edited with Papyrus;
    this repository's equivalent is a human-writable S-expression
    format, so `gaspardcl --load` can run the transformation chain on
    user-defined models.  {!to_string} and {!of_string} round-trip
    (property-tested on the downscaler models). *)

exception Format_error of string

val to_string : Marte.model -> string

val of_string : string -> Marte.model
(** Raises {!Format_error} (or {!Sexp.Parse_error}) on malformed
    input, ragged tiler matrices included.  The resulting application
    is re-validated by the transformation chain, not here. *)

val save : string -> Marte.model -> unit

val load : string -> Marte.model
(** Reads and parses a model file.  Malformed contents raise
    {!Format_error} with the message [path: what]. *)
