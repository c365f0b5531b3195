(** Execution of a generated host program.

    The emitters print a route's {!C_print.host_step}s as CUDA, OpenCL
    or Metal host code; this interpreter performs the same steps on a
    simulated {!Context}, so what a route measures is the program it
    prints.  Device identifiers ([dst], [src], [name] and launch
    actuals) name buffers bound by earlier [Alloc] steps; host
    identifiers are resolved by the caller. *)

type 'r host = {
  read : string -> int array;  (** the host array an [Upload] copies *)
  write : string -> int array -> unit;
      (** receives the fresh array a [Download] filled *)
  route : 'r -> unit;  (** performs a [Route] step's payload *)
}

val run : Context.t -> 'r host -> 'r C_print.host_step list -> unit
(** [Alloc], [Upload], [Download], [Launch] and [Free] go through
    {!Context.alloc}, {!Context.h2d}, {!Context.d2h}, {!Context.launch}
    and {!Context.free}; [Fill] sets the buffer without an event;
    [Comment] does nothing.  Raises [Invalid_argument] when a step names
    a device identifier no live [Alloc] bound. *)
