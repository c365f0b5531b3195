(** Serving metrics: counters in {!Obs.Metrics} plus exact latency
    percentiles.

    The registry half is process-wide and always on — every admission
    decision and completion bumps a [serve.*] counter, so a [--metrics]
    dump (or the bench [--json] report) carries the serving totals next
    to the [gpu.*] and [pool.*] series.  The {!recorder} half is
    per-engine: completed-request latencies are accumulated exactly
    (not bucketed) so p50/p95/p99 in reports are true order statistics,
    which the bounded-p99 acceptance checks rely on. *)

(** {1 Process-wide counters} *)

val submitted : unit -> unit

val completed : unit -> unit

val rejected : unit -> unit

val dropped : unit -> unit

val timed_out : unit -> unit

val retried : unit -> unit

val failed : unit -> unit

val batch : frames:int -> unit
(** One coalesced launch of [frames] requests: bumps [serve.batches]
    and [serve.batched_frames], and maintains the
    [serve.batch_high_water] gauge. *)

(** {1 Exact latency percentiles} *)

type recorder

val recorder : ?cap:int -> unit -> recorder
(** [cap] (default 1M) bounds the retained samples: past it, new
    latencies still feed the [serve.latency_us] histogram but are not
    retained exactly, and each loss bumps the [stats.dropped_samples]
    counter so a truncated summary is detectable. *)

val record : recorder -> float -> unit
(** Record one completed-request latency in microseconds (domain-safe);
    also feeds the [serve.latency_us] histogram. *)

type summary = {
  count : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float;
  max_us : float;
}

val summary : recorder -> summary

val percentile : float array -> p:float -> float
(** Nearest-rank percentile ([p] in [0..100]) of an unsorted sample;
    [0.] on the empty array.  Exposed for the test suite. *)
