(** ArrayOL task models.

    An application is a GILR (globally irregular, locally regular)
    hierarchy (Section II-A):

    - {b elementary} tasks are opaque functions on patterns (bound to
      an {!Ip});
    - {b repetitive} tasks apply an inner task over a repetition space,
      with a tiler on every connection between an outer array port and
      an inner pattern port — the data-parallel level;
    - {b compound} tasks are dependence graphs of parts — the task-
      parallel level (the paper's Figure 3 downscaler chain).

    Ports carry array shapes; tilers carry the
    origin/fitting/paving triple of Section IV. *)

open Ndarray

type port = { pname : string; pshape : Shape.t }

type tiling = {
  outer_port : string;  (** array port of the repetitive task *)
  inner_port : string;  (** pattern port of the repeated inner task *)
  tiler : Tiler.t;
}

type endpoint =
  | Boundary of string  (** a port of the enclosing task *)
  | Part of string * string  (** (part instance, port) *)

type connection = { cfrom : endpoint; cto : endpoint }

type t =
  | Elementary of {
      name : string;
      ip : string;
      inputs : port list;
      outputs : port list;
    }
  | Repetitive of {
      name : string;
      repetition : Shape.t;
      inner : t;
      in_tilings : tiling list;
      out_tilings : tiling list;
      inputs : port list;
      outputs : port list;
    }
  | Compound of {
      name : string;
      parts : (string * t) list;
      connections : connection list;
      inputs : port list;
      outputs : port list;
    }

val name : t -> string

val inputs : t -> port list

val outputs : t -> port list

val find_port : port list -> string -> port option

val in_tiler_spec : t -> tiling -> Tiler.spec
(** For a repetitive task: the full {!Tiler.spec} of an input tiling
    (array shape from the outer port, pattern shape from the inner
    port, repetition space from the task). *)

val out_tiler_spec : t -> tiling -> Tiler.spec
