(** Cost-guided plan autotuning ([--opt auto]), for either compile
    route.

    Explores rewrite sequences over a plan through {!Search} — a
    fuse-to-fixpoint step (so the fixed [--fuse] plan is always an
    explored candidate and the tuned plan can never score worse than
    it), single-pair {b fuse} steps, {b fission} (undoing the previous
    rewrite), and per-unit loop {b interchange} and {b tile}
    (thread-coarsening) — in that order, scoring each candidate with
    the view's cost.  Every rewrite re-verifies through the view's
    analysis gates before it is eligible.

    Winners are memoised process-wide per (pipeline, shape, device,
    plan digest) in {!Cache} as {e rule paths}: a later tune of the
    same program (possibly with different profiling labels or gensym
    numbers) replays the path on its own plan, re-verifying each
    step. *)

(** What the driver needs to know about a plan representation. *)
type 'p view = {
  pipeline : string;  (** cache-key pipeline and span prefix (["sac"]) *)
  device : string;  (** cache-key device name *)
  shape : 'p -> int * int;  (** cache-key frame rows and columns *)
  cost : 'p -> float;  (** modelled time, the search objective *)
  fingerprint : 'p -> string;  (** search-state identity *)
  canonical : 'p -> string * (string -> string);
      (** cache digest of the base plan, and the renaming that spells
          its rule names in that digest's numbering *)
  fuse_candidates :
    'p -> (string * (unit -> ('p * Gpu.Fuse.stats) option)) list;
      (** named single-pair fusions, each gated *)
  fuse_all : 'p -> 'p * Gpu.Fuse.stats;  (** fusion to fixpoint *)
  units : 'p -> (string * int list) list;
      (** the rewrite units (kernel groups), each with the tile factors
          it is offered *)
  rewrite :
    'p ->
    string ->
    (Gpu.Kir.t * int array -> (Gpu.Kir.t * int array) option) ->
    'p option;
      (** [rewrite p u rule] applies a grid-level {!Rules} rewrite to
          unit [u]'s kernels; [None] when nothing changed or the result
          fails the gates *)
}

type 'p state = {
  plan : 'p;
  fstats : Gpu.Fuse.stats;  (** fusion savings accumulated so far *)
  undo : 'p state option;  (** state before the last rewrite *)
}

val init : 'p -> 'p state
(** The unrewritten state of a plan. *)

val moves : 'p view -> 'p state -> 'p state Search.candidate list
(** All rewrite moves applicable to a state, in search order. *)

val synthetic : int -> int array
(** A shared synthetic input of the given length ([i mod 251]), for
    timing-only cost runs; callers must not mutate it.  A timing-only
    device never reads it, but the SAC route's [`Estimate] host blocks
    evaluate parameter values, so the cost runs still pass real
    arrays. *)

val tune : 'p view -> 'p -> 'p * Gpu.Fuse.stats * string list
(** [tune view p] returns the tuned plan, the fusion savings it
    embodies and the winning rule path (empty when [p] is already
    best).  Consults the tuned-plan cache first; on a miss the search
    runs once, under a [<pipeline>.autotune] span, and its winner is
    memoised. *)
