(** Process-wide tuned-plan cache.

    The search is deterministic per (pipeline, shape, device, base-plan
    digest), so its winner is memoised once per key and replayed
    everywhere else — notably by {!Serve.Session}, whose per-session
    compiled-plan cache compiles through the same key and therefore
    serves the plan tuned by an earlier run (the bench ablation, or the
    first session of that shape) without re-searching.

    Entries store the winning {e rule path}, not the plan itself:
    callers replay the named rewrites on their own base plan (which may
    carry caller-specific kernel labels), re-verifying each step. *)

type tuned = {
  rules : string list;
      (** winning rewrite sequence, possibly empty; a pipeline whose
          names carry gensym counters stores them renumbered by
          {!canonical} of its base plan *)
  tuned_us : float;  (** modelled frame time of the tuned plan *)
  base_us : float;  (** modelled frame time of the unoptimised plan *)
}

val key :
  pipeline:string -> rows:int -> cols:int -> device:string -> digest:string ->
  string
(** Cache key for one (pipeline, shape, device, base-plan) combination. *)

val digest : 'a -> string
(** Structural digest of an arbitrary value (used on label-stripped
    plans so differently-labelled compiles of the same program share a
    key). *)

val structural_digest : 'a -> string
(** MD5 of the value marshalled without sharing: a function of its
    structure alone, however its subterms happen to be shared in
    memory.  The SAC search fingerprint: within one search every name
    derives deterministically from the initial plan, so no renumbering
    is needed. *)

val canonical_digest : 'a -> string
(** Like {!digest}, but with compiler-generated name counters
    (["x$123"] / ["x_123"] suffixes) renumbered by first occurrence
    before hashing, so two separate compilations of the same source —
    whose gensym counters differ — still share a digest.  The
    cross-compile tuned-plan cache key. *)

val canonical : 'a -> string * (string -> string)
(** [canonical v] is [canonical_digest v] together with the renumbering
    it applied, as a function on strings: names that occur in [v] map
    to their canonical spelling, so a rule naming ["output$51"] in one
    compile and ["output$97"] in another canonicalise alike. *)

val find_or_tune : key:string -> (unit -> tuned) -> tuned
(** Return the memoised result for [key], running the (possibly slow)
    tuner outside the lock on a miss; the first writer wins.  Bumps
    [optimizer.plan_cache_hits] / [optimizer.plan_cache_misses]. *)

val size : unit -> int

val clear : unit -> unit
(** Drop all entries (tests only). *)
