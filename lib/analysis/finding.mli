(** Findings reported by the static analyzers.

    Every checker (kernel verifier, race detector, transfer check)
    produces a flat list of these; the printers use the same
    [file:where: what] shape as [Sac.Check.pp_issue] and
    [Arrayol.Validate.pp_issue], so lint output from all three
    front ends lines up. *)

type severity = Error | Warning | Note

type kind =
  | Oob_read  (** buffer read index may or must fall outside the buffer *)
  | Oob_write  (** buffer store index may or must fall outside the buffer *)
  | Div_by_zero
  | Mod_by_zero
  | Unused_param  (** kernel parameter (scalar or buffer) never referenced *)
  | Race  (** two work-items provably write the same address *)
  | Unproven_disjoint  (** disjointness could not be established *)
  | Bad_cover  (** [full_cover] claim provably wrong *)
  | Unproven_cover  (** [full_cover] claim not established *)
  | Undefined_use
      (** host step reads a value no earlier step defines, or a freed
          buffer *)
  | Missing_d2h  (** host code reads a device-only value without a transfer *)
  | Redundant_transfer
      (** host step moves a value that is never read or already there *)
  | Dead_item  (** host step writes values nothing reads *)
  | Bad_kernel  (** kernel fails structural validation *)
  | Analysis_skipped  (** problem too large for the configured budget *)
  | Uncoalesced_access
      (** warp lanes scatter across memory segments on a hot buffer *)
  | Divergent_branch  (** branch condition varies across a warp's lanes *)
  | Redundant_reads
      (** warp re-reads addresses a scratchpad stage would hold *)
  | Stranded_lanes  (** launch shape leaves warp lanes idle *)
  | Bank_conflict
      (** staged loads would serialise on shared-memory banks *)

type t = {
  kind : kind;
  severity : severity;
  file : string;  (** pipeline / source context, e.g. ["sac"] or ["mde"] *)
  where : string;  (** kernel or host-step name *)
  what : string;
}

val v :
  kind ->
  severity ->
  file:string ->
  where:string ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val kind_label : kind -> string

val pp_long : Format.formatter -> t -> unit
(** [file:where: severity[kind]: what]. *)

val errors : t list -> int

val warnings : t list -> int

val notes : t list -> int

val record : kernels:int -> t list -> unit
(** Count one checked plan, its [kernels] and its findings into the
    [analysis.*] metrics, and log each finding on the [analysis] log
    source. *)

val gate :
  what:string -> kernels:int -> (unit -> t list) -> (unit, string) result
(** Apply the configured {!Config.mode}: [Off] computes nothing, [Lint]
    computes and {!record}s the findings and succeeds, [Strict] records
    them and fails when any has [Error] severity. *)

val findings_dropped : int -> unit
(** Count [n] findings a checker truncated past its budget into the
    [analysis.findings_dropped] metric (no-op for [n <= 0]). *)

val perf_kernels_checked : int -> unit
(** Bump the [analysis.perf.kernels_checked] counter by [n]. *)

val perf_gate : what:string -> (unit -> t list) -> (unit, string) result
(** {!gate} under {!Config.perf_mode}, recording into the
    [analysis.perf.*] metrics. *)
