(* Analyzer modes shared by every verification gate.

   The gates in Sac_cuda.Compile and Mde.Chain consult this at the end
   of compilation: [Off] skips analysis entirely, [Lint] records
   findings in the metrics registry and the log without failing, and
   [Strict] turns error-severity findings into compilation failures.
   The correctness gate ([mode]) and the performance-lint gate
   ([perf_mode]) are configured independently: `--verify` and
   `--perf-lint` on the CLIs. *)

type mode = Off | Lint | Strict

let state = Atomic.make Lint

let set_mode m = Atomic.set state m

let mode () = Atomic.get state

let perf_state = Atomic.make Lint

let set_perf_mode m = Atomic.set perf_state m

let perf_mode () = Atomic.get perf_state

let mode_to_string = function Off -> "off" | Lint -> "lint" | Strict -> "strict"

(* Finding budget of the interval kernel verifier.  A kernel spraying
   thousands of identical out-of-bounds findings drowns the report, so
   Kir_check truncates at this many and counts what it dropped in the
   [analysis.findings_dropped] metric. *)

let default_findings_cap = 64

let cap_state = Atomic.make default_findings_cap

let set_findings_cap n = Atomic.set cap_state (max 1 n)

let findings_cap () = Atomic.get cap_state
