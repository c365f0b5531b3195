(** Perfetto trace assembly for the simulated device.

    {!Obs.Trace} knows how to lay out generic device events and host
    spans; this module owns the GPU-specific half: converting
    {!Timeline} events (kernel launches and copies on the modelled
    clock) into device tracks, and a registry where drivers deposit
    the timelines a [--trace] run should export.

    Device groups get one thread-track per event kind ([kernels],
    [h2d], [d2h]); each slice starts at the event's modelled
    [start_us] offset, so the device portion of a trace is
    byte-identical regardless of host parallelism. *)

val register : name:string -> Timeline.t -> unit
(** Deposit [timeline] as device group [name].  Re-registering a name
    replaces its timeline (the registry holds the timeline itself, not
    a snapshot — events recorded later still show up in {!write}).
    No-op while the {!Obs.Tracer} is disabled. *)

val clear : unit -> unit

val device_events_of : Timeline.t -> Obs.Trace.device_event list
(** The trace slices for one timeline, in recording order. *)

val device_only_json : unit -> string
(** Like {!render} but without host spans — every byte is a function
    of the modelled event streams, which the determinism tests rely
    on. *)

val write : string -> unit
(** Write {!render} to a file. *)
