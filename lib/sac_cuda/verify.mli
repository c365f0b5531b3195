(** Static verification of compiled plans (the Section VII invariants).

    [check] runs the three analyzers from [lib/analysis] over a plan:
    interval bounds/div-by-zero/unused-param checking of every
    generator-kernel, race and [full_cover] validation per
    [Device_withloop], and the residency/transfer dataflow replaying
    {!Host_walk}'s transfer rules.  A correct compiler output yields
    []. *)

val buffer_lengths :
  Sac.Scalarize.swith -> out_len:int -> (string * int) list
(** [("out", out_len)] followed by each referenced array's sanitized
    kernel-parameter name and element count — the buffer environment
    the analyzers (and tests) allocate against. *)

val check : Plan.t -> Analysis.Finding.t list

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
