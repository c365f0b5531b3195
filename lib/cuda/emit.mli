(** CUDA C source emission from kernel IR.

    The SAC compiler's CUDA backend (Section VII) emits one [__global__]
    function per WITH-loop generator plus a host program carrying the
    [host2device]/[device2host] transfers and kernel invocations.  This
    module renders both as compilable-looking CUDA C text (the
    simulator executes the same IR; the text is the artefact a user
    would inspect or port to a real device).  Kernel bodies print
    through the shared {!Gpu.C_print}; this module is its CUDA
    dialect and host API. *)

val kernel : grid:Ndarray.Shape.t -> Gpu.Kir.t -> string
(** One [__global__] function.  The grid supplies the literal bounds of
    the guard ([if (gid >= extent) return;]) exactly as the SAC
    backend derives kernel configurations "from the generator bounds".
    Grids of rank <= 3 map row-major onto the [blockIdx]/[threadIdx]
    axes (innermost dimension on x); higher ranks run 1-D over the
    flattened size and decompose the linear thread id with %-and-/
    chains. *)

val program :
  name:string ->
  kernels:(Gpu.Kir.t * Ndarray.Shape.t) list ->
  steps:_ Gpu.C_print.host_step list ->
  string
(** A full [.cu] translation unit: kernels followed by a [main] that
    performs [steps] with CUDA runtime calls.  Launches use 256-thread
    blocks shaped to the grid rank (1-D for ranks above 3).  Raises
    [Invalid_argument] when a launch lacks an actual for a kernel
    formal. *)
