(** Transfer check over a generated host program: the
    {!Gpu.C_print.host_step} list a route's emitters print and
    {!Gpu.Host_run} executes.  One walk tracks, for each host name,
    whether the host holds its current value, and for each device buffer
    whether it is allocated, written or freed and which value it holds.
    Kernel parameter kinds say which launch arguments are read and
    written; the route says what its [Route] payloads read and write.
    - [Undefined_use] (error): a read before any upload or write, of a
      buffer nothing wrote or that was freed, or an output never on the
      host;
    - [Missing_d2h] (error): host code reads a value only the device holds;
    - [Redundant_transfer] (warning): a [Download] nothing on the host
      reads, or an [Upload] of a value a live buffer already holds;
    - [Dead_item] (warning): a [Route] whose writes nothing reads. *)

type access = {
  reads : string list;  (** host names the payload reads *)
  writes : string list;  (** host names it gives new values *)
  copies : (string * string) list;
      (** [(target, source)]: [target] takes [source]'s value and host state *)
}

val no_access : access

val check :
  ?file:string ->
  ?defines:(string -> string option) ->
  inputs:string list ->
  outputs:string list ->
  route:('r -> access) ->
  'r Gpu.C_print.host_step list ->
  Finding.t list
(** [inputs] are on the host at entry; [outputs] must be at the end.
    [defines d] is the host name whose value a launch writing buffer
    [d] computes (default none), so host code reading it before a
    download is a [Missing_d2h]. *)
