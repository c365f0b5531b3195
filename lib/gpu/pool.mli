(** A persistent pool of OCaml domains for data-parallel execution.

    The simulator used to pay [Domain.spawn]/[Domain.join] on every
    kernel launch (~2700 launches in a full-scale reproduction); this
    pool spawns its worker domains once and feeds them work through a
    shared queue.  The submitting thread always {e helps}: while its
    batch is outstanding it executes queued tasks itself, so

    - a pool of size 1 (or a 1-core machine) degrades to plain inline
      execution with no synchronisation stalls, and
    - nested submissions (a pooled task that itself calls
      {!parallel_for}) cannot deadlock — the nested caller drains the
      queue instead of blocking on busy workers.

    Results are deterministic whenever tasks write to disjoint state:
    the pool affects only {e when} tasks run, never what they compute,
    and all combinators preserve submission order in their results.

    Observability: the pool feeds the [pool.*] metrics in
    {!Obs.Metrics} (tasks split into worker- and caller-executed,
    batches, queue high-water, configured size, peak task parallelism)
    and emits a ["pool.task"] span per executed task when the
    {!Obs.Tracer} is enabled. *)

type t

val create : ?workers:int -> unit -> t
(** [create ~workers ()] spawns [workers] worker domains (default:
    [size - 1] for the global default size, i.e. workers plus the
    caller saturate the recommended domain count). *)

val size : t -> int
(** Total parallelism: worker domains plus the submitting caller. *)

val shutdown : t -> unit
(** Join all workers.  Subsequent submissions run inline. *)

(** {1 The shared global pool} *)

val default_domains : unit -> int
(** The configured parallelism, defaulting to
    [Domain.recommended_domain_count ()].  CLI [--domains N] flags set
    this. *)

val set_default_domains : int -> unit
(** Resize the global pool (shutting down the old one).  [n <= 1]
    makes every combinator run inline. *)

val get : unit -> t
(** The global pool, created lazily at the configured size. *)

(** {1 Combinators} *)

val parallel_for :
  ?chunks:int -> t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for pool ~lo ~hi f] covers [lo, hi) with [chunks]
    (default: pool size) contiguous subranges and calls [f sub_lo
    sub_hi] for each, concurrently.  Returns when all subranges are
    done; the first task exception (if any) is re-raised. *)

val map_list : t -> (unit -> 'a) list -> 'a list
(** [map_list pool fs] runs the thunks concurrently and returns their
    results in submission order (determinism: the schedule never leaks
    into the result). *)

val help_one : t -> bool
(** Execute at most one queued task on the calling thread; [true] if a
    task was run.  Lets threads that must wait on something else (the
    serving batcher's gather window) donate their wait to the pool
    instead of spinning. *)
