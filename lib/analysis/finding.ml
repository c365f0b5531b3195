(* Analyzer findings: one shared record for all three checkers, so the
   kernel verifier, the race detector and the transfer check print in
   the same [file:where: what] format as Sac.Check and
   Arrayol.Validate issues. *)

type severity = Error | Warning | Note

type kind =
  | Oob_read
  | Oob_write
  | Div_by_zero
  | Mod_by_zero
  | Unused_param
  | Race
  | Unproven_disjoint
  | Bad_cover
  | Unproven_cover
  | Undefined_use
  | Missing_d2h
  | Redundant_transfer
  | Dead_item
  | Bad_kernel
  | Analysis_skipped
  | Uncoalesced_access
  | Divergent_branch
  | Redundant_reads
  | Stranded_lanes
  | Bank_conflict

type t = {
  kind : kind;
  severity : severity;
  file : string;
  where : string;
  what : string;
}

let v kind severity ~file ~where fmt =
  Format.kasprintf (fun what -> { kind; severity; file; where; what }) fmt

let kind_label = function
  | Oob_read -> "oob-read"
  | Oob_write -> "oob-write"
  | Div_by_zero -> "div-by-zero"
  | Mod_by_zero -> "mod-by-zero"
  | Unused_param -> "unused-param"
  | Race -> "race"
  | Unproven_disjoint -> "unproven-disjoint"
  | Bad_cover -> "bad-cover"
  | Unproven_cover -> "unproven-cover"
  | Undefined_use -> "undefined-use"
  | Missing_d2h -> "missing-d2h"
  | Redundant_transfer -> "redundant-transfer"
  | Dead_item -> "dead-item"
  | Bad_kernel -> "bad-kernel"
  | Analysis_skipped -> "analysis-skipped"
  | Uncoalesced_access -> "uncoalesced-access"
  | Divergent_branch -> "divergent-branch"
  | Redundant_reads -> "redundant-reads"
  | Stranded_lanes -> "stranded-lanes"
  | Bank_conflict -> "bank-conflict"

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let pp ppf f = Format.fprintf ppf "%s:%s: %s" f.file f.where f.what

let pp_long ppf f =
  Format.fprintf ppf "%s:%s: %s[%s]: %s" f.file f.where (severity_label f.severity)
    (kind_label f.kind) f.what

let count sev findings =
  List.length (List.filter (fun f -> f.severity = sev) findings)

let errors = count Error
let warnings = count Warning
let notes = count Note

let src = Logs.Src.create "analysis" ~doc:"kernel/plan static analysis"

module Log = (val Logs.src_log src : Logs.LOG)

(* Correctness findings count under analysis.*, performance lints under
   analysis.perf.*, so the bench report can tell them apart. *)
let record_under prefix findings =
  List.iter
    (fun f ->
      let count name = Obs.Metrics.incr (Obs.Metrics.counter (prefix ^ name)) in
      count "findings";
      count (severity_label f.severity ^ "s");
      let level =
        match f.severity with
        | Error -> Logs.Error
        | Warning -> Logs.Warning
        | Note -> Logs.Info
      in
      Log.msg level (fun k -> k "%a" pp_long f))
    findings

let record ~kernels findings =
  Obs.Metrics.add (Obs.Metrics.counter "analysis.kernels_checked") kernels;
  Obs.Metrics.incr (Obs.Metrics.counter "analysis.plans_checked");
  record_under "analysis." findings

let findings_dropped n =
  if n > 0 then
    Obs.Metrics.add (Obs.Metrics.counter "analysis.findings_dropped") n

let perf_kernels_checked n =
  Obs.Metrics.add (Obs.Metrics.counter "analysis.perf.kernels_checked") n

let gate_under mode ~verb ~what findings =
  match mode with
  | Config.Off -> Ok ()
  | Config.Lint | Config.Strict ->
      let errs =
        if mode = Config.Strict then
          List.filter (fun f -> f.severity = Error) findings
        else []
      in
      if errs = [] then Ok ()
      else
        Error
          (Format.asprintf "%s of %s failed: %d error(s); first: %a" verb
             what (List.length errs) pp (List.hd errs))

let gate ~what ~kernels findings =
  match Config.mode () with
  | Config.Off -> Ok ()
  | mode ->
      let findings = findings () in
      record ~kernels findings;
      gate_under mode ~verb:"verification" ~what findings

let perf_gate ~what findings =
  match Config.perf_mode () with
  | Config.Off -> Ok ()
  | mode ->
      let findings = findings () in
      record_under "analysis.perf." findings;
      gate_under mode ~verb:"perf lint" ~what findings
