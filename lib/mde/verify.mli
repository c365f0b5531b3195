(** Static verification of generated kernel tasks and host programs.

    [check] runs the interval bounds checker over each task's kernel
    and the race/coverage checker over each output port with the
    exact-pave claim ArrayOL semantics impose; {!check_generated} adds
    {!Analysis.Transfer} over the host program.  A correct code
    generator yields [].

    [?file] names the pipeline context in each finding's
    [file:where:] prefix (default ["mde"]); {!Chain.transform} passes
    ["mde:<pass>"] so kernel-level findings identify the chain pass
    that raised them. *)

val check : ?file:string -> Codegen.kernel_task list -> Analysis.Finding.t list

val check_steps :
  ?file:string ->
  Codegen.generated ->
  unit Gpu.C_print.host_step list ->
  Analysis.Finding.t list
(** {!Analysis.Transfer} over host steps of the program. *)

val check_generated :
  ?file:string -> Codegen.generated -> Analysis.Finding.t list
(** {!check}, then {!check_steps} over [Codegen.host_steps ~liveness:true]. *)

val gate : ?file:string -> Codegen.kernel_task list -> (unit, string) result
(** {!check} as a gate honouring {!Analysis.Config.mode}. *)

val gate_generated : ?file:string -> Codegen.generated -> (unit, string) result
(** {!check_generated} as the gate {!Chain.transform} applies. *)

val perf_check :
  ?file:string -> Codegen.kernel_task list -> Analysis.Finding.t list
(** Performance lints ({!Analysis.Perf_lint}) over every task kernel,
    ranked; does not consult the gate mode. *)

val perf_gate :
  ?file:string -> Codegen.kernel_task list -> (unit, string) result
(** Apply {!Analysis.Config.perf_mode} to {!perf_check}'s findings,
    recording [analysis.perf.*] metrics unless [Off]. *)
