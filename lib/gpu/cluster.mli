(** A device set: one {!Context} per ordinal of a {!Topology}.

    Drivers that shard planes/frames/streams across devices create a
    cluster once and hand each unit of work the context the scheduler
    picked; {!transfer} migrates a buffer between devices, charging the
    topology's peer-link (or two-hop) time to the receiving device. *)

type t

val create : ?mode:Context.exec_mode -> Topology.t -> t

val uniform : ?mode:Context.exec_mode -> devices:int -> Device.t -> t
(** Shorthand for [create (Topology.uniform ~devices profile)]. *)

val topology : t -> Topology.t

val device_count : t -> int

val context : t -> int -> Context.t
(** Context of the given ordinal; raises [Invalid_argument] out of
    range. *)

val contexts : t -> Context.t list
(** In ordinal order. *)

val transfer : ?label:string -> t -> src:int -> dst:int -> Buffer.t -> Buffer.t
(** Migrate a buffer from device [src] to device [dst]: allocate on
    [dst], blit the contents (none in a timing-only cluster), free on
    [src], and record a [Memcpy_d2d]
    event on the destination timeline (the receiving device pays).
    Returns the destination buffer; when [src = dst] the buffer is
    returned unchanged and nothing is recorded. *)

val makespan_us : t -> float
(** Max over devices of modelled elapsed time — the end-to-end time of
    a sharded run whose devices work concurrently. *)

val merged_timeline : t -> Timeline.t
(** All per-device events appended in ordinal order onto a fresh
    timeline; deterministic for profiler tables and traces. *)

val reset : t -> unit
(** {!Context.reset} on every device. *)
