(** OpenCL C source emission from kernel IR.

    The Gaspard2 model-to-text phase produces "source files (.cpp, .cl)
    and a makefile" (Section VI-B of the paper).  This module renders
    all three from the transformed model's kernels: each repetitive
    task becomes one [__kernel] whose work-item id is linearised and
    re-decomposed with [%]/[/] exactly like the generated tiler code in
    the paper's Figure 11.  Kernel bodies print through the shared
    {!Gpu.C_print}; this module is its OpenCL dialect and host API. *)

val kernel : grid:Ndarray.Shape.t -> Gpu.Kir.t -> string
(** One [__kernel] function guarded by the global work size. *)

val cl_file : name:string -> (Gpu.Kir.t * Ndarray.Shape.t) list -> string
(** The [.cl] translation unit containing every kernel. *)

val host_program : name:string -> steps:_ Gpu.C_print.host_step list -> string
(** The generated [.cpp]: platform/context/queue boilerplate, program
    build from the [.cl] file, then [steps].  Raises [Invalid_argument]
    when a launch lacks an actual for a kernel formal. *)

val makefile : name:string -> string
