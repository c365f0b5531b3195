(** The host program of a compiled plan: the one place the SAC route
    decides its host schedule.

    One walk over {!Plan.t} derives the kernels and the host steps
    around them.  The CUDA, OpenCL and Metal emitters print the steps
    in their own host APIs, and {!Exec} runs the same steps on the
    simulated device, so the printed program is the measured one.  The
    residency rules ([host2device]/[device2host] of Section VII):
    - parameters start host-resident;
    - an array is uploaded the first time a kernel reads it while only
      the host holds it;
    - a host block's reads that only the device holds are downloaded,
      and the device copy stays valid;
    - what a host block writes is host-resident, and its device copy
      is dropped;
    - a with-loop whose generators do not cover its frame first fills
      its output buffer with the base (an upload, or a fill for any
      constant, zero included: device allocations are not zeroed);
    - a [Copy] aliases its source's device buffer;
    - the result is downloaded at the end if only the device holds it,
      and every buffer still allocated is then freed, in allocation
      order. *)

type t = {
  kernels : (Gpu.Kir.t * int array) list;  (** in launch order *)
  steps : Plan.item Gpu.C_print.host_step list;
      (** [Route] payloads are the plan's host blocks, constant arrays
          and copies *)
  downloads : (string * int array) list;
      (** shape of every host name a [Download] writes *)
}

val host : string -> string
(** Host name of an array in the steps: ["h_"] and its sanitized
    name (its device name is ["d_"] and the same). *)

val of_plan :
  ?host_block:(Sac.Ast.stmt list -> string) ->
  ?label_withloops:bool ->
  ?liveness:bool ->
  Plan.t ->
  t
(** [host_block] renders a host block as verbatim host code (default:
    a comment with its statement count); [label_withloops] (default
    [false]) precedes each device with-loop with a
    [CUDA-WITH-loop: <label>] comment; [liveness] (default [false])
    frees each device buffer right after the last item that can read
    its alias class, so peak memory tracks the working set (the result
    stays live until the end).  Raises [Invalid_argument] when the plan reads an
    array before defining it. *)
