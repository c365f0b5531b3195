(** Chrome trace-event (Perfetto-loadable) JSON exporter.

    A trace mixes two clock domains, each its own process group in the
    Perfetto UI:

    - {b device groups} — events on the modelled device clock (the
      simulated GTX480 timeline of the paper's Figure 9), starting at
      t=0; their rendering depends only on the modelled event stream,
      so they are byte-identical across host parallelism settings;
    - {b the host group} — wall-clock spans from {!Tracer}, one track
      per OCaml domain, rebased so the earliest span starts at t=0.

    Host spans whose {!Tracer.span.sp_flow} is non-zero additionally
    carry a ["flow"] arg and are linked by Chrome flow events (["s"] on
    the earliest span of each flow, ["t"] on every later one), so one
    request's queue-wait → batch-gather → execute phases render as a
    single arrowed flow across domain tracks in Perfetto.  Flow events
    only ever attach to the host group: device-group rendering depends
    solely on the modelled event stream and stays byte-identical
    whatever host spans (or flows) accompany it.

    Load the file at https://ui.perfetto.dev (or chrome://tracing). *)

type value = I of int | F of float | S of string

type device_event = {
  de_track : string;  (** thread-track within the group, e.g. ["kernels"] *)
  de_name : string;  (** slice name, e.g. the profiling label *)
  de_cat : string;
  de_ts_us : float;  (** modelled start offset *)
  de_dur_us : float;  (** modelled duration *)
  de_args : (string * value) list;
}

val render :
  ?device:(string * device_event list) list ->
  ?spans:Tracer.span list ->
  unit ->
  string
(** Render a complete trace document.  [device] is an ordered list of
    [(group name, events)]; [spans] is typically [Tracer.dump ()]. *)
