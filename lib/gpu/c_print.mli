(** C-family source printing of kernel IR.

    The CUDA, OpenCL and Metal emitters print kernel bodies with this
    one printer; each supplies a {!dialect} for the parts that differ,
    and renders the shared {!host_step}s in its own host API. *)

type dialect = {
  name : string;  (** emitter name used in error messages, e.g. ["Cuda.Emit"] *)
  keyword : string;  (** kernel declaration keyword, e.g. ["__kernel void"] *)
  params : Kir.param list -> string list;
      (** parameter declarations, in order (a dialect may append
          implicit ones such as a thread-position attribute) *)
  param_sep : string;  (** separator between parameter declarations *)
  prologue : Stdlib.Buffer.t -> int array -> unit;
      (** prints the statements that define [gid0 .. gid(rank-1)] for
          the grid and return from out-of-range work-items *)
}

val linear_gids : Stdlib.Buffer.t -> var:string -> int array -> unit
(** [linear_gids buf ~var grid] prints the row-major decomposition of
    the linear work-item id [var] into [gid<d>] with %-and-/ chains,
    exactly like the generated tiler code of the paper's Figure 11. *)

val kernel : dialect -> grid:Ndarray.Shape.t -> Kir.t -> string
(** One kernel function.  Raises [Invalid_argument] when the grid rank
    does not match the kernel's. *)

val kernels :
  dialect -> Stdlib.Buffer.t -> (Kir.t * Ndarray.Shape.t) list -> unit
(** Appends every kernel, each followed by a blank line. *)

(** Host-side steps of a generated program, in order.  Each emitter
    renders them with its own runtime API, and {!Host_run} executes the
    same list on a simulated device, so the printed host program is the
    one the simulator measures.  ['r] is the payload of the route's own
    host work (the SAC route's host blocks, constant arrays and copies);
    a route without such work leaves it polymorphic. *)
type 'r host_step =
  | Comment of string
  | Alloc of { dst : string; name : string; len : int }
      (** device buffer [dst] of [len] ints; [name] is the simulator's
          buffer name, which event details report *)
  | Upload of { dst : string; src : string; len : int }
      (** host [src] -> device [dst] *)
  | Download of { dst : string; src : string; len : int }
      (** device [src] -> host [dst] *)
  | Fill of { dst : string; value : int; len : int }
      (** set every int of device buffer [dst] to [value] *)
  | Launch of {
      kernel : Kir.t;
      grid : Ndarray.Shape.t;
      args : (string * string) list;  (** formal name -> host identifier *)
      label : string;  (** profiling group of the launch *)
      split : int;  (** kernels the originating task was divided into *)
    }
  | Route of { code : string; payload : 'r }
      (** route-specific host work: printed as the verbatim host C
          [code], executed by handing [payload] to the route *)
  | Free of { name : string }

val actuals :
  dialect -> Kir.t -> (string * string) list -> (Kir.param * string) list
(** Each kernel formal with its actual from the launch's [args], in
    parameter order.  Raises [Invalid_argument "<name>: missing actual
    for <formal>"] when one is absent. *)
