(** Flight recorder: a fixed ring of recently completed requests with
    per-phase latency attribution.

    Where {!Metrics} aggregates and {!Tracer} needs [--trace] to be on,
    the flight recorder is always-on and bounded: every completed
    request deposits one {!entry} (its phase breakdown, outcome and
    total latency), the ring keeps the most recent [capacity] of them,
    and {!render_slowest} dumps the worst offenders with per-phase
    attribution — the first thing to look at after a deadline miss or a
    p99 regression, without re-running under a tracer. *)

type entry = {
  e_request : int;  (** {!Ctx.t} request id — matches the trace flow *)
  e_trace : int;
  e_label : string;  (** pipeline / session label, e.g. ["sac"] *)
  e_outcome : string;  (** ["done"], ["timed_out"], ["failed: …"], … *)
  e_total_us : float;
  e_phases : (string * float) list;  (** ordered phase durations, us *)
}

type t

val create : ?capacity:int -> unit -> t
(** A ring retaining the last [capacity] (default 256) entries. *)

val record : t -> entry -> unit
(** Deposit one completed request (domain-safe). *)

val recorded : t -> int
(** Total entries ever recorded (≥ the number retained). *)

val entries : t -> entry list
(** Retained entries, oldest first. *)

val slowest : t -> int -> entry list
(** The [n] slowest retained entries, worst first. *)

val render_slowest : ?n:int -> t -> string
(** Formatted dump of the slowest [n] (default 5) retained entries. *)
