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

(** Host-side steps of a generated program, in order; each emitter
    renders them with its own runtime API. *)
type host_step =
  | Comment of string
  | Alloc of { dst : string; len : int }  (** device buffer of [len] ints *)
  | Upload of { dst : string; src : string; len : int }
      (** host [src] -> device [dst] *)
  | Download of { dst : string; src : string; len : int }
      (** device [src] -> host [dst] *)
  | Launch of {
      kernel : Kir.t;
      grid : Ndarray.Shape.t;
      args : (string * string) list;  (** formal name -> host identifier *)
    }
  | Host_code of string  (** verbatim host C (e.g. a host-side tiler loop) *)
  | Free of { name : string }

val actuals :
  dialect -> Kir.t -> (string * string) list -> (Kir.param * string) list
(** Each kernel formal with its actual from the launch's [args], in
    parameter order.  Raises [Invalid_argument "<name>: missing actual
    for <formal>"] when one is absent. *)
