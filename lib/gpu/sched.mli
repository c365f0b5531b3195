(** Deterministic residency-aware sharding scheduler.

    Scores each candidate device as accumulated load + the caller's
    statically predicted kernel time there + the {!Topology} transfer
    cost of making the task's inputs resident, and places greedily
    with ties broken towards the lowest ordinal.  No wall clocks and
    no float-keyed hash iteration are involved, so a fixed task
    sequence always yields the same placement and the same modelled
    timelines, regardless of how many worker domains later execute
    the placements. *)

type t

type decision = {
  task : string;
  ordinal : int;  (** chosen device *)
  predicted_us : float;  (** kernel time on the chosen device *)
  transfer_us : float;
      (** migration/upload cost paid to run there — when a task stays
          on its residency device despite higher load, the rejected
          alternatives' transfer estimates are in [reason] *)
  reason : string;  (** per-device scores, for the decision log *)
}

val create : Topology.t -> t

val load : t -> int -> float
(** Accumulated modelled load (us) of a device ordinal. *)

val residency : t -> string -> int option
(** Which device a buffer key currently lives on, if any. *)

val place :
  ?inputs:(string * int) list ->
  ?outputs:string list ->
  t ->
  name:string ->
  us_of:(int -> float) ->
  decision
(** Place one task.  [us_of ordinal] is the predicted kernel time on
    that device (e.g. {!Perf_model.kernel_time_us} over the static
    cost summary); [inputs] are [(buffer key, bytes)] pairs whose
    transfer cost is charged where they are not already resident, and
    [outputs] (plus the inputs) become resident on the chosen device. *)

val stream_device :
  ?working_set_bytes:int -> t -> stream:string -> us:float -> int * bool
(** Device affinity for a serving stream: the first call pins the
    stream to the least-loaded device, later calls keep it there
    unless its device's load exceeds the least-loaded device's load
    plus the cost of migrating [working_set_bytes] by a hysteresis
    factor — then the stream migrates (returned flag [true], counted
    in {!migrations}).  [us] is the predicted cost of the request
    being placed and is added to the chosen device's load. *)

val migrations : t -> int
(** Stream migrations performed by {!stream_device}. *)

val pp_decision : Format.formatter -> decision -> unit
