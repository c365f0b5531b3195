(** Kernel-level rewrite rules over the shared {!Gpu.Kir} IR.

    Each rule maps a [(kernel, grid)] pair to a candidate pair that
    executes the same set of store events (possibly from a different
    thread decomposition), or [None] when the rule does not apply.
    Rules only re-shape the iteration space; they never touch what is
    computed, so a candidate is bit-identical by construction — but
    every caller still re-verifies it through the [lib/analysis] gates
    (bounds, race/coverage) before making it eligible, exactly like the
    fusion rewrites.

    The plan-level rules — producer/consumer {b fuse} and its inverse
    {b fission} — are offered by {!Tune}: fusion candidates come from
    each plan representation's view, fission from the search state's
    undo link.  The grid-level rules here are representation-agnostic. *)

val interchange : Gpu.Kir.t * int array -> (Gpu.Kir.t * int array) option
(** Loop interchange: swap the two grid dimensions of a rank-2 kernel,
    rewriting [Gid 0 <-> Gid 1] in the body.  Each work-item keeps its
    exact address trace, so the rewrite is an involution (applying it
    twice restores the original kernel, name included).  [None] for
    kernels that are not rank-2. *)

val tile : factor:int -> Gpu.Kir.t * int array -> (Gpu.Kir.t * int array) option
(** Tile / thread-coarsening block-size selection: shrink the innermost
    grid dimension by [factor] and replicate the body [factor] times,
    replica [i] substituting [Gid d -> Gid d * factor + i] (let- and
    loop-bound names are suffixed per replica).  One work-item then
    computes a block of [factor] adjacent outputs — the block-size
    trade-off the cost model prices via occupancy and read-burst
    length.  [None] when the innermost extent is not a proper multiple
    of [factor]. *)
