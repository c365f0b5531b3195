(** Static checks on ArrayOL models.

    Enforces the language rules of Section II-A: single assignment
    (every input is driven exactly once, no output is driven twice),
    rank-consistent tilers, IPs that exist and match their elementary
    task's pattern sizes, acyclic compound graphs, and exact-cover
    output tilers (no element of an output array may be written twice,
    and all must be written). *)

type issue = { loc : string; where : string; what : string }
(** [loc] names the analyzed artefact (model file or pipeline stage)
    so lint output lines share the [loc:where: what] shape with
    {!Sac.Check.pp_issue} and [Analysis.Finding.pp]. *)

val check : ?loc:string -> Model.t -> issue list
(** Empty list = valid model.  [loc] (default ["model"]) prefixes every
    issue.  Covers are decided at every array size by
    {!Tiler.is_exact_cover} and {!Tiler.covers_array}. *)

val pp_issue : Format.formatter -> issue -> unit
