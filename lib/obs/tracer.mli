(** Span-based host tracer with domain-local ring buffers.

    Each OCaml domain records the spans it executes into its own
    bounded ring (no locks on the recording path; the oldest spans are
    overwritten if a domain exceeds the ring capacity).  {!dump} merges
    every ring into one chronologically sorted list — one Perfetto
    track per domain — and is intended to be called by the driver after
    all parallel work has been joined.

    The tracer is off by default.  When disabled, {!start}/{!finish}
    and {!with_span} cost one atomic load and perform no allocation, so
    instrumented hot paths (kernel launches) stay near-zero overhead. *)

type span = {
  sp_name : string;
  sp_cat : string;  (** grouping category, e.g. ["gpu"], ["pool"] *)
  sp_tid : int;  (** recording domain's id *)
  sp_start_us : float;  (** host wall clock, microseconds since epoch *)
  sp_dur_us : float;
  sp_flow : int;
      (** causal flow this span belongs to ({!Ctx.flow_id}); [0] when
          the span was recorded outside any request context *)
}

val set_enabled : bool -> unit
(** Turn recording on or off ([--trace] sets this). *)

val enabled : unit -> bool

val now_us : unit -> float
(** Host wall clock in microseconds. *)

val emit :
  ?cat:string -> ?flow:int -> string -> start_us:float -> dur_us:float -> unit
(** Record a completed span on the calling domain's ring (no-op when
    disabled).  [flow] defaults to the ambient {!Ctx.current} flow id,
    so spans recorded under {!Ctx.scoped} are causally linked without
    any explicit threading. *)

val start : unit -> float
(** Hot-path helper: the current time when enabled, [0.0] otherwise. *)

val finish : ?cat:string -> ?flow:int -> string -> float -> unit
(** [finish name t0] records a span from [t0] (a {!start} result) to
    now.  No-op when disabled or when [t0] is [0.0]. *)

val with_span : ?cat:string -> ?flow:int -> string -> (unit -> 'a) -> 'a
(** Run a thunk inside a span (recorded even if the thunk raises).
    When disabled this is exactly the thunk call. *)

val dump : unit -> span list
(** All retained spans from every domain, sorted by start time. *)

val clear : unit -> unit
(** Discard all recorded spans (rings stay registered). *)
