(** Event timeline of a simulated device.

    Every kernel launch and memory copy appends one event carrying its
    modelled duration; the {!Profiler} aggregates these into the
    paper's Table I / Table II rows, and the trace exporter lays them
    out on the modelled clock via their start offsets. *)

type kind = Kernel | Memcpy_h2d | Memcpy_d2h | Memcpy_d2d

type event = {
  label : string;  (** profiling label, e.g. ["H. Filter"] *)
  detail : string;  (** kernel name or buffer name *)
  kind : kind;
  us : float;  (** modelled duration *)
  start_us : float;
      (** modelled start offset on the owning timeline, assigned by
          {!record} (whatever the caller passes is overwritten): the
          device is a single serial queue, so each event starts where
          the previous one ended.  Exporters read these directly
          instead of re-accumulating durations. *)
  bytes : int;  (** payload moved (copies) or touched (kernels) *)
  threads : int;  (** work items (kernels only) *)
}

type t

val create : unit -> t

val record : t -> event -> unit
(** Append an event; its [start_us] is set to the timeline's current
    total and the total advances by [us]. *)

val events : t -> event list
(** In recording order. *)

val clear : t -> unit

val total_us : t -> float
(** O(1): the running clock maintained by {!record}. *)

val append : t -> t -> unit
(** [append dst src] records all of [src]'s events onto [dst] in
    order (start offsets are re-assigned on [dst]'s clock).  The pooled
    drivers run planes/frames on per-worker timelines and append them
    in plane/frame order, so the merged timeline is bit-identical to a
    sequential run. *)

val replay : t -> times:int -> unit
(** Re-record the current event list [times - 1] more times; used to
    extrapolate one simulated frame to the paper's 300 iterations
    without re-executing identical work. *)

val pp_kind : Format.formatter -> kind -> unit
