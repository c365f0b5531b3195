(** Request-scoped causal context.

    A context names one request ([request_id], globally unique) inside
    one driver run ([trace_id]).  It travels with the request across
    queue and domain boundaries; every span recorded while a context is
    {!scoped} carries its {!flow_id}, so the Chrome trace renderer can
    link a request's queue-wait, batch-gather and execute phases into a
    single Perfetto flow even though they were recorded on different
    domains at different times.

    Identifiers are process-wide counters — they are stable within one
    run (what a trace file covers) and never reused, which is all the
    flow linkage needs. *)

type t = { trace_id : int; request_id : int }

val is_none : t -> bool

val fresh_trace : unit -> int
(** A new trace id, one per driver run / load-generation campaign. *)

val fresh : ?trace_id:int -> unit -> t
(** A new request context (fresh process-unique request id). *)

val flow_id : t -> int
(** The identifier spans record; [0] for the empty context. *)

val current : unit -> t
(** The calling domain's ambient context (the empty context, carried by
    spans recorded outside any request, outside {!scoped}). *)

val scoped : t -> (unit -> 'a) -> 'a
(** [scoped ctx f] runs [f] with [ctx] as the ambient context on this
    domain (restored on return or raise).  Nesting is allowed; the
    innermost context wins. *)
