(** Process-wide analyzer modes for the verification gates. *)

type mode =
  | Off  (** skip analysis *)
  | Lint  (** analyse, record metrics and log findings, never fail *)
  | Strict  (** like [Lint] but error findings fail the compilation *)

val set_mode : mode -> unit

val mode : unit -> mode
(** Correctness-gate mode (bounds, races, residency).  Defaults to
    [Lint]. *)

val set_perf_mode : mode -> unit

val perf_mode : unit -> mode
(** Performance-lint gate mode (coalescing, divergence, overlap,
    launch-shape findings).  Independent of {!mode}; defaults to
    [Lint]. *)

val mode_to_string : mode -> string

val default_findings_cap : int
(** 64, the historical hard-coded Kir_check budget. *)

val set_findings_cap : int -> unit
(** Set the per-kernel finding budget of the interval verifier
    (clamped to at least 1). *)

val findings_cap : unit -> int
(** Current budget; truncated findings are counted in the
    [analysis.findings_dropped] metric. *)
