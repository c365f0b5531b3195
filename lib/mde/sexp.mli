(** Minimal S-expressions: the concrete syntax of the model files
    ({!Model_io}), standing in for Gaspard2's XMI/UML serialisation. *)

type t = Atom of string | List of t list

exception Parse_error of string

val parse : string -> t
(** One S-expression; raises {!Parse_error} (with position) on
    malformed input or trailing tokens.  Comments run from [;] to end
    of line. *)

val to_string : ?indent:int -> t -> string
(** Pretty-printed with line breaks for nested lists. *)

val int_atom : t -> int

val ints : t -> int list
(** A list of integer atoms. *)
