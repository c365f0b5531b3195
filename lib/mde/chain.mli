(** The Gaspard2 OpenCL transformation chain, end to end.

    "We use the downscaler model ... then we execute the OpenCL chain"
    (Section VI-B): a sequence of model-to-model passes — application
    validation, allocation onto the platform, scheduling — followed by
    the model-to-text generation, then execution of the generated
    program on the simulated OpenCL device. *)

type trace = { pass : string; detail : string }

val transform :
  ?opt:Optimizer.Mode.t ->
  ?device:Gpu.Device.t ->
  Marte.model ->
  (Codegen.generated * trace list, string) result
(** Runs the full chain; the trace records one entry per pass (what a
    Gaspard2 user sees in the Eclipse console).  [opt] selects the plan
    optimisation applied after code generation (default
    {!Optimizer.Mode.default}): [Fuse] is the fixed fusion pass, [Auto]
    the cost-guided rewrite search of {!Autotune} ([device] being its
    cost-model target). *)

val transform_exn :
  ?opt:Optimizer.Mode.t -> ?device:Gpu.Device.t -> Marte.model -> Codegen.generated

exception Run_error of string
(** = {!Exec.Run_error} *)

val run :
  ?label_of:(string -> string) ->
  ?liveness:bool ->
  Gpu.Context.t ->
  Codegen.generated ->
  inputs:(string * int Ndarray.Tensor.t) list ->
  (string * int Ndarray.Tensor.t) list
(** Execute the generated program: {!Exec.run} under an [mde.run]
    span.  [label_of] maps a task name to its profiling label (e.g.
    ["HorizontalFilter"] -> ["H. Filter"]); callers running optimised
    programs pass [~liveness:true] ({!Optimizer.Mode.liveness}). *)

val downscaler_model : rows:int -> cols:int -> Marte.model
(** The paper's frame-level downscaler, allocated data-parallel. *)

val downscaler_label : string -> string
(** The [label_of] for running {!downscaler_model}: the profiling
    labels of the paper's tables (["HorizontalFilter"] ->
    ["H. Filter"], ["VerticalFilter"] -> ["V. Filter"]); other task
    names pass through. *)
