(** Cost-guided autotuning for the ArrayOL -> OpenCL chain
    ([--opt auto]): the {!Codegen.generated} view of the shared
    {!Optimizer.Tune} driver.

    Fusion steps are the single-connection {!Fuse_chain.candidates};
    the rewrite units are the kernel tasks, named by instance, and
    every task is offered both tile factors.  Candidates are scored by
    running the program's level walk ({!Exec.run}) in a timing-only
    OpenCL context, which prices the sizes of the transfers and
    launches and never reads their data, and every rewritten task set
    re-verifies through {!Verify.check} before it is eligible. *)

val view : ?device:Gpu.Device.t -> unit -> Codegen.generated Optimizer.Tune.view
(** The program view priced on [device] (default: the OpenCL context's
    default device); exposed for the per-rule unit tests. *)

val modelled_us : ?device:Gpu.Device.t -> Codegen.generated -> float
(** Modelled single-run device time of the generated program: the
    {!Exec.run} walk that {!Chain.run} executes (uploads, the scheduled
    kernel launches and output read-backs), here in a timing-only
    context.  This equals what {!Chain.run} models for the same program
    on any inputs, and is both the search objective and the autotune
    ablation metric. *)

val tune :
  ?device:Gpu.Device.t ->
  Codegen.generated ->
  Codegen.generated * Gpu.Fuse.stats * string list
(** [tune g] returns the tuned program (sources re-rendered when any
    rewrite applied), its fusion savings and the winning rule path.
    Consults the tuned-plan cache first, searching only on a miss. *)
