(** The host program of a compiled plan, for every source backend.

    One walk over {!Plan.t} derives the kernels to print and the host
    steps around them, with the same residency rules as {!Exec}: an
    array is uploaded the first time a kernel reads it while it is
    host-resident, and downloaded when a host block (or the final
    result) needs it back.  The CUDA, OpenCL and Metal emitters render
    the same steps in their own host APIs. *)

type t = {
  kernels : (Gpu.Kir.t * int array) list;  (** in launch order *)
  steps : Gpu.C_print.host_step list;
  live : string list;
      (** device names of the with-loop targets still resident after
          the final download, in plan order *)
}

val of_plan :
  ?host_block:(Sac.Ast.stmt list -> Gpu.C_print.host_step) ->
  ?label_withloops:bool ->
  Plan.t ->
  t
(** [host_block] renders a host block (default: a comment with its
    statement count); [label_withloops] (default [false]) precedes
    each device with-loop with a [CUDA-WITH-loop: <label>] comment. *)
