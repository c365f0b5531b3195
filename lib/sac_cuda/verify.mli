(** Static verification of compiled plans (the Section VII invariants).

    [check] runs the analyzers from [lib/analysis] over a plan:
    interval bounds/div-by-zero/unused-param checking of every
    generator-kernel, race and [full_cover] validation per
    [Device_withloop], and {!Analysis.Transfer} over the host steps of
    [Host_walk.of_plan ~liveness:true] — the program the emitters print
    and {!Exec} runs.  A correct compiler output yields []. *)

val buffer_lengths :
  Sac.Scalarize.swith -> out_len:int -> (string * int) list
(** [("out", out_len)] followed by each referenced array's sanitized
    kernel-parameter name and element count — the buffer environment
    the analyzers (and tests) allocate against. *)

val item_findings :
  swith:Sac.Scalarize.swith ->
  kernels:(Gpu.Kir.t * int array) list ->
  full_cover:bool ->
  Analysis.Finding.t list
(** Bounds of each kernel of one device with-loop, then race and cover
    over the group: the check {!Fuse_plan} and {!Autotune} gate each
    candidate with. *)

val check_steps :
  Plan.t -> Plan.item Gpu.C_print.host_step list -> Analysis.Finding.t list
(** {!Analysis.Transfer} over host steps of the plan: a host block
    reads its free variables and writes its declared writes, a constant
    array writes its target, and a copy shares its source's value. *)

val check : Plan.t -> Analysis.Finding.t list
(** A read before definition, on which {!Host_walk.of_plan} raises, is
    an [Undefined_use] error. *)

val perf_check : Plan.t -> Analysis.Finding.t list
(** Performance lints ({!Analysis.Perf_lint}) over every generator
    kernel, ranked; does not consult the gate mode. *)

val perf_gate : Plan.t -> (unit, string) result
(** Apply {!Analysis.Config.perf_mode} to {!perf_check}'s findings,
    recording [analysis.perf.*] metrics unless [Off]. *)

val gate : Plan.t -> (unit, string) result
(** Verification gate applied by {!Compile.plan}, honouring
    {!Analysis.Config.mode}: [Off] skips, [Lint] records findings in
    metrics/logs, [Strict] additionally fails on error findings. *)
