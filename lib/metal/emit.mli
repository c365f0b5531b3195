(** Metal Shading Language emitter over the shared kernel IR.

    The third source backend next to [Cuda.Emit] and [Opencl.Emit]:
    the same verified kernels print, through the shared
    {!Gpu.C_print}, as MSL compute functions with
    address-space-qualified [[buffer(n)]] parameters and a linearised
    [[thread_position_in_grid]] work-item id, plus a metal-cpp host
    program and a Makefile driving the [metal]/[metallib] toolchain. *)

val kernel : grid:Ndarray.Shape.t -> Gpu.Kir.t -> string
(** One [kernel void] MSL function; the dispatch is 1-D, so
    multi-dimensional grids decompose the linear id with %-and-/
    chains exactly like the OpenCL emitter.  Raises
    [Invalid_argument] when the grid rank does not match the
    kernel's. *)

val metal_file : name:string -> (Gpu.Kir.t * Ndarray.Shape.t) list -> string
(** A [.metal] translation unit containing all given kernels. *)

val host_program : name:string -> steps:_ Gpu.C_print.host_step list -> string
(** A metal-cpp host [main] executing the steps in order: shared-mode
    buffers, [memcpy] blits through [contents()], one command buffer
    per dispatch with [setBuffer]/[setBytes] bindings in parameter
    order (matching the [[buffer(n)]] indices the kernel printer
    assigned).  Raises [Invalid_argument] when a dispatch lacks an
    actual for a kernel formal. *)

val makefile : name:string -> string
