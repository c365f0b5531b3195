(** Bounded, domain-safe MPMC request queue with overload policies.

    The admission edge of the serving engine: producers ({!Engine.submit}
    callers) push from any domain, consumers (engine workers) pop from
    any domain.  Capacity is fixed at creation; what happens when a push
    finds the queue full is the queue's {!policy}:

    - [Block] — the producer waits for space (closed-loop backpressure);
    - [Reject] — the push fails immediately (load shedding at the edge);
    - [Drop_oldest] — the oldest queued element is evicted and returned
      to the producer, which must fail it (bounded staleness: fresh work
      displaces work that has waited longest).

    {!close} flips the queue into drain mode: further pushes return
    [Closed], pops keep returning queued elements until the queue is
    empty and only then return [None] — so a closing engine never loses
    a request that was admitted.

    Observability: pushes maintain the [serve.queue_depth] gauge and the
    [serve.queue_high_water] high-water mark in {!Obs.Metrics}. *)

type policy = Block | Reject | Drop_oldest

type 'a t

type 'a push_result =
  | Accepted
  | Rejected  (** full under [Reject] *)
  | Dropped of 'a  (** accepted; the evicted oldest element is returned *)
  | Closed  (** the queue no longer admits work *)

val create : capacity:int -> policy:policy -> unit -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val policy : _ t -> policy

val push : 'a t -> 'a -> 'a push_result
(** Only [Block] pushes can wait; the other policies return
    immediately. *)

val pop : 'a t -> 'a option
(** Blocking FIFO pop; [None] once the queue is closed {e and}
    drained. *)

val try_pop_where : 'a t -> ('a -> bool) -> 'a option
(** Non-blocking pop of the {e first} element satisfying the predicate,
    preserving the relative order of the others (the batcher uses this
    to coalesce same-plan requests without reordering other streams). *)

val length : _ t -> int

val close : _ t -> unit
