(** Cost-guided plan autotuning for the SAC -> CUDA pipeline
    ([--opt auto]): the {!Plan.t} view of the shared
    {!Optimizer.Tune} driver.

    Fusion steps are the {!Fuse_plan} candidates; the rewrite units are
    the device with-loop items, named by their target.  Tile moves are
    withheld from items whose largest generator grid reaches four
    times the device's saturation, where coarsening cannot pay.  Every
    candidate re-verifies through the [lib/analysis] gates. *)

val view : device:Gpu.Device.t -> Plan.t Optimizer.Tune.view
(** The plan view priced on [device]; exposed for the per-rule unit
    tests. *)

val modelled_us : ?device:Gpu.Device.t -> Plan.t -> float
(** Modelled single-frame time (device + host) of a plan under the
    analytic cost model: an [`Estimate] {!Exec.run} in a timing-only
    runtime.  The device side prices sizes only; the arguments'
    synthetic values reach just the host-block estimates, which
    evaluate parameter values.  Deterministic, and equal to what a
    [Sequential] [`Estimate] run models on real arguments; this is both
    the search objective and the number the autotune ablation
    reports. *)

val tune : ?device:Gpu.Device.t -> Plan.t -> Plan.t * Gpu.Fuse.stats * string list
(** [tune p] returns the tuned plan, the fusion savings it embodies and
    the winning rule path (empty when the compiled plan is already
    best).  Consults the process-wide tuned-plan cache first; on a miss
    the search runs once and its winner is memoised.  Default device:
    the paper's GTX480 (matching {!Gpu.Context.create}). *)
