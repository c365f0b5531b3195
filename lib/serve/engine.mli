(** The serving event loop: queue → batcher → pool workers.

    An engine owns a bounded request {!Queue} and a set of worker
    domains.  Each worker repeatedly claims an adaptive batch of
    same-plan requests ({!Batcher.collect}, helping the shared
    {!Gpu.Pool} while it waits out a gather window), expires requests
    whose deadline passed while queued, and executes the rest as one
    coalesced launch — the frames of a batch run concurrently on the
    shared domain pool, each against the session's cached compiled
    plan.

    Every submitted request is completed {e exactly once} with one of
    the {!outcome}s; double completion is a programming error and
    raises.  A transient execution failure is retried once before the
    request fails.  {!shutdown} closes the queue, drains everything
    already admitted (executing it, or timing it out if its deadline
    passed) and joins the workers — no request is silently lost.

    Observability: every admission decision and completion bumps the
    [serve.*] counters ({!Stats}); each request carries an {!Obs.Ctx}
    from submission through the queue to the executing domain, so its
    ["serve.queue_wait"], ["serve.batch_gather"], ["serve.execute"] (and
    ["serve.retry"]) spans share one flow id and render as a single
    causally-linked Perfetto flow.  Every completion also lands in the
    engine's always-on {!flight} recorder with per-phase attribution,
    and — when an {!Obs.Slo} is attached — is classified against the
    latency objective.  The device events of all frames merge onto the
    engine's {!timeline} for the Perfetto export. *)

type config = {
  workers : int;  (** consumer domains (>= 1) *)
  queue_capacity : int;
  policy : Queue.policy;
  batch : Batcher.config;
}

val default_config : config
(** 2 workers, capacity 64, [Reject], {!Batcher.default}. *)

type outcome =
  | Done of { frame : Video.Frame.t; latency_us : float }
  | Rejected  (** queue full under [Reject], or submitted after shutdown *)
  | Dropped  (** evicted by a newer request under [Drop_oldest] *)
  | Timed_out  (** deadline expired while queued *)
  | Failed of string  (** raised twice (initial attempt + retry) *)

type ticket
(** A handle on one submitted request. *)

type t

val create :
  ?inject:(session_id:int -> frame_no:int -> attempt:int -> unit) ->
  ?slo:Obs.Slo.t ->
  ?flight_capacity:int ->
  config ->
  t
(** Spawn the worker domains.  [inject] is a fault hook run before each
    execution attempt (attempt 0, then 1 on retry); the test suite uses
    it to exercise the retry path by raising.  [slo] attaches a latency
    objective: [Done] completions are observed against it, timeouts and
    failures breach it.  [flight_capacity] sizes the flight recorder
    ring (default 256). *)

val submit :
  t -> ?deadline_us:float -> Session.t -> frame_no:int -> Video.Frame.t ->
  ticket
(** Enqueue one frame.  [deadline_us] is an {e absolute}
    {!Obs.Tracer.now_us} timestamp; a request still queued past it
    completes as [Timed_out] instead of executing.  Under the [Block]
    policy this call waits for queue space; under [Reject]/[Drop_oldest]
    it never blocks (the victim's ticket completes immediately). *)

val await : ticket -> outcome
(** Block until the request completes. *)

val peek : ticket -> outcome option
(** Non-blocking completion check. *)

val shutdown : t -> unit
(** Close the queue, drain all admitted requests and join the workers.
    Idempotent.  After shutdown, {!submit} completes new tickets as
    [Rejected]. *)

val latency : t -> Stats.summary
(** Exact percentiles over every [Done] completion of this engine. *)

val flight : t -> Obs.Recorder.t
(** The engine's always-on flight recorder: one entry per executed or
    timed-out request, with per-phase latency attribution. *)

val slo : t -> Obs.Slo.t option
(** The SLO passed to {!create}, if any. *)

val timeline : t -> Gpu.Timeline.t
(** Merged device events of every executed frame, in completion order
    (register it with {!Gpu.Trace_export.register} to see serving
    device activity in the Perfetto trace). *)
