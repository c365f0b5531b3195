(** Kernel IR: the common target of both compiler pipelines.

    The SAC->CUDA backend and the Gaspard2->OpenCL template chain both
    produce kernels in this small C-like IR.  A kernel is a scalar
    program executed once per point of an n-dimensional grid; it reads
    and writes flat device buffers through linear addresses, exactly
    like the generated code in the paper's Figure 11.

    The IR has three consumers:
    - {!shared_prepare_memo} and {!bind} turn it into fast OCaml
      closures for functional (bit-exact) execution on the simulator;
    - one instrumented evaluator counts sampled threads to drive the
      analytic timing model ({!profile_threads} with the argument
      buffers' data, {!static_cost} with opaque loads) and enumerates
      store events for the race checker ({!iter_stores});
    - the {!C_print} printer renders it as CUDA C, OpenCL C or Metal
      source text. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** C semantics: truncation towards zero *)
  | Mod  (** C semantics: sign follows the dividend *)
  | Min
  | Max
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type expr =
  | Int of int
  | Gid of int  (** global work-item id along grid dimension [d] *)
  | Param of string  (** scalar kernel argument *)
  | Var of string  (** let- or loop-bound variable *)
  | Read of string * expr  (** buffer argument, linear index *)
  | Bin of binop * expr * expr
  | Select of expr * expr * expr  (** [Select (c, a, b)] = [c ? a : b] *)

type stmt =
  | Let of string * expr
  | Store of string * expr * expr  (** buffer, linear index, value *)
  | If of expr * stmt list * stmt list
  | For of { var : string; lo : expr; hi : expr; body : stmt list }
      (** [for (var = lo; var < hi; var++)] *)

type param_kind = Scalar | In_buffer | Out_buffer

type param = { pname : string; kind : param_kind }

type t = {
  kname : string;
  params : param list;
  grid_rank : int;
  body : stmt list;
}

type arg = Scalar_arg of int | Buffer_arg of Buffer.t

val validate : t -> (unit, string) result
(** Static checks: identifiers bound before use, unique parameter
    names, reads only from buffers, stores only to [Out_buffer]s, [Gid]
    dimensions below [grid_rank], non-empty name. *)

exception Kernel_error of string
(** Raised during execution or profiling on division/modulo by zero,
    and by {!profile_threads} on an out-of-bounds buffer access. *)

type prepared
(** A kernel compiled to closures but not yet bound to arguments,
    reusable across launches.  Prepared kernels are immutable and safe
    to share between domains. *)

type compiled

val shared_prepare_memo : t -> prepared * bool
(** Compile a kernel to closures through a process-wide memo table
    (thread-safe), so short-lived contexts still compile each distinct
    kernel once.  Also reports whether the kernel was already in the
    table — callers keeping compile-hit counters honest across
    short-lived contexts need the distinction.  Raises
    [Invalid_argument] if {!validate} fails. *)

val bind : prepared -> args:(string * arg) list -> compiled
(** Pack the actual argument values into the prepared kernel — a few
    array writes per launch.  Raises [Invalid_argument] unless the
    arguments match the parameter list in names and kinds. *)

val cost_data_independent : t -> bool
(** True when a thread's address trace and operation count cannot
    depend on buffer contents (no value loaded from a buffer flows
    into an If/Select condition, For bound, Read/Store index, or
    Div/Mod divisor), so a {!profile_threads} result is valid for any
    buffer data of the same lengths and may be cached. *)

val run_grid : ?domains:int -> compiled -> Ndarray.Shape.t -> unit
(** Execute every work-item of the grid, row-major.  With [domains > 1]
    the linearised grid is chunked across the persistent {!Pool} (a
    [domains] of 0 or less means the pool's configured default);
    kernels produced by the two backends write disjoint output elements
    per thread, so this is race-free and bit-identical to sequential
    execution. *)

(** Per-buffer static access description, derived by {!static_cost}
    from sampled warps of 32 lanes.  Segment quantities model 32-word
    (128-byte) coalesced transactions. *)
type buffer_access = {
  ba_buffer : string;
  ba_reads : float;  (** mean reads per sampled thread on this buffer *)
  ba_class : [ `Row | `Column | `Gather ];
  ba_burst : float;  (** mean per-thread consecutive-address run length *)
  ba_efficiency : float;
      (** cache-amortised warp coalescing efficiency: distinct words
          the warp consumes over the words of the distinct segments it
          fetches, in [0, 1] — a segment fetched at one transaction
          step is assumed resident for the warp's later steps, so
          strided-burst row walks amortise to ~1.0 while a transposed
          walk wastes 31/32 of every line *)
  ba_overlap : float;
      (** fraction of warp read events re-fetching an address some lane
          of the warp already read — the reuse a scratchpad stage would
          absorb *)
  ba_bank_conflict : int;
      (** modelled shared-memory conflict degree if the warp's loads
          were staged: max lanes hitting one of 32 banks in a step *)
}

(** Per-[If] divergence summary. *)
type branch_summary = {
  br_site : string;  (** rendered branch condition *)
  br_divergent : bool;
      (** some sampled warp's lanes took different decision sequences *)
  br_ops : float;  (** mean ops per thread inside the branch region *)
  br_stores : float;  (** mean stores per thread inside the region *)
}

(** Warp-level memory-behaviour summary of a launch, derived without
    executing the kernel. *)
type access_summary = {
  as_buffers : buffer_access list;  (** in kernel-parameter order *)
  as_branches : branch_summary list;  (** in program order *)
  as_divergent_branches : int;
  as_divergent_ops : float;
      (** mean per-thread ops inside divergent regions — lanes of a
          mixed warp serialise these *)
  as_stranded_lanes : int;
      (** idle lanes of the last warp: (32 - total mod 32) mod 32 *)
  as_warp_size : int;  (** 32 *)
}

(** Per-thread cost profile, averaged over sampled threads. *)
type cost = {
  reads_per_thread : float;  (** global-memory loads *)
  writes_per_thread : float;  (** global-memory stores *)
  ops_per_thread : float;  (** arithmetic/logic operations *)
  access : [ `Row | `Column | `Gather ];
      (** dominant read-address pattern: consecutive addresses within a
          thread ([`Row]), large constant stride ([`Column]), or
          irregular ([`Gather]) *)
  read_burst : float;
      (** mean length of consecutive-address runs in the read trace; a
          thread reading an 11-point row pattern has burst 11.  Long
          per-thread bursts reduce cross-thread coalescing, which the
          performance model charges for [`Row] kernels. *)
  summary : access_summary option;
      (** [Some] when derived by {!static_cost}; [None] from
          {!profile_threads} *)
}

val profile_threads : t -> args:(string * arg) list -> grid:Ndarray.Shape.t -> cost
(** Evaluate up to 64 threads spread across the grid with instrumented
    memory accesses, loads reading the argument buffers.  Thread bodies
    of the generated kernels are control-uniform in all but boundary
    threads, so the sample mean is an accurate per-thread cost.  Stores
    go to private copies of the output buffers: later sampled threads
    see earlier ones' writes, and every argument buffer is left
    unchanged.  A storeless buffer reads as zeros.  Raises
    [Invalid_argument] if the arguments do not match the parameters or
    {!validate} fails, and
    {!Kernel_error} on a division by zero or out-of-bounds access in a
    sampled thread. *)

val static_cost :
  ?scalars:(string * int) list ->
  t ->
  grid:Ndarray.Shape.t ->
  (cost, string) result
(** Derive the cost profile without executing the kernel: buffer loads
    evaluate to an opaque value and every address, branch condition and
    loop bound must still reduce to a concrete integer.  Succeeds for
    exactly the kernels whose addresses and control flow are data-free
    (a superset check of {!cost_data_independent} runs first), and then
    agrees with {!profile_threads} on the same launch by construction:
    both run the same instrumented evaluator over the same thread
    sample, differing only in what a load yields.  The result
    additionally carries an {!access_summary} with warp-level
    coalescing efficiency, read overlap, modelled bank conflicts and a
    divergence map, derived from three densely sampled warps (first,
    middle, last).  [scalars] supplies values for scalar parameters the
    body mentions. *)

val iter_stores :
  t ->
  grid:Ndarray.Shape.t ->
  (thread:int -> string -> int -> unit) ->
  (unit, string) result
(** [iter_stores k ~grid f] evaluates every work-item in row-major
    order with opaque loads, calling [f ~thread buf addr] for each
    store event ([thread] is the row-major work-item index).  [Error]
    when [k] is invalid or evaluation stops: an address, branch
    condition, loop bound or divisor that needs a loaded value or a
    scalar parameter, or a division by zero.  Events delivered before
    the stop stand. *)

val binop_symbol : binop -> string
(** The C operator (or, for [Min]/[Max], function) spelling of an
    operator, shared by the source emitters ({!C_print}). *)
