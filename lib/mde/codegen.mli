(** Model-to-text: OpenCL code generation (Section V-C).

    Each GPU-allocated repetitive task becomes one [__kernel] whose
    body is generated from its tiler specifications — an unrolled
    gather ("pattern filling based on Fitting matrix", Figure 11), the
    IP fragment, and the output-tiler scatter.  The host program and
    makefile are rendered alongside, as Gaspard2 "produces source
    files (.cpp, .cl) and a makefile". *)

exception Codegen_error of string

val sanitize : string -> string
(** Valid C identifier from an instance/port name. *)

type kernel_task = {
  instance : string;  (** part instance, e.g. ["rhf"] *)
  task_name : string;  (** e.g. ["HorizontalFilter"] *)
  kernel : Gpu.Kir.t;
  grid : int array;
  input_ports : (string * int array) list;  (** port -> array shape *)
  output_ports : (string * int array) list;
}

type generated = {
  model_name : string;
  kernel_tasks : kernel_task list;
  levels : string list list;  (** schedule: instance names per level *)
  connections : Arrayol.Model.connection list;
  boundary_inputs : Arrayol.Model.port list;
  boundary_outputs : Arrayol.Model.port list;
  cl_source : string;
  host_source : string;
  makefile : string;
}

val host_steps : ?liveness:bool -> generated -> _ Gpu.C_print.host_step list
(** The host program: boundary inputs uploaded, each kernel's output
    buffers allocated and the kernel launched, level by level in
    schedule order, boundary outputs read back, then every buffer still
    allocated freed.  A launch's label is its task name.  [liveness]
    (default [false]) frees each buffer after the last level that reads
    it; boundary outputs stay live for the read-back.  {!render} prints these steps and {!Exec.run}
    executes them. *)

val render : generated -> generated
(** Recompute [cl_source], [host_source] and [makefile] from the task
    set; used after a pass ({!Fuse_chain}) rewrites [kernel_tasks],
    [levels] or [connections].  The other fields pass through. *)

val generate : Marte.model -> generated
(** The application must be a flat compound of repetitive parts (or a
    single repetitive task), fully allocated; GPU parts become kernels.
    Raises {!Codegen_error} otherwise. *)
