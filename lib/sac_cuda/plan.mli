(** Device-program plans: what the SAC CUDA backend produces.

    A plan is the backend's intermediate between the optimised SAC
    program and its host program ({!Host_walk}), which the emitters
    print ({!Emit_cu} and the OpenCL/Metal backends) and {!Exec} runs
    on the simulated device.  It mirrors Section VII's three steps:
    identified CUDA-WITH-loops become {!item.Device_withloop}s (one
    kernel per generator), everything else stays on the host, and
    transfers are implied by host/device residency, which the host
    walk resolves. *)

type item =
  | Device_withloop of {
      target : string;  (** variable the with-loop defines *)
      swith : Sac.Scalarize.swith;  (** post generator-splitting *)
      kernels : (Gpu.Kir.t * int array) list;
          (** one kernel per generator, with its grid *)
      full_cover : bool;
          (** generators cover the whole frame: the base array need not
              be materialised *)
      label : string;  (** profiling label ("H. Filter", ...) *)
    }
  | Const_array of { target : string; shape : int array; fill : int }
  | Host_block of {
      stmts : Sac.Ast.stmt list;
      reads : string list;  (** arrays consumed (forces device2host) *)
      writes : string list;
    }
  | Copy of { target : string; source : string }

type t = {
  params : (string * int array) list;  (** array parameters with shapes *)
  items : item list;
  result : string;
  result_shape : int array;
}

val pp : Format.formatter -> t -> unit

val kernel_count : t -> int
