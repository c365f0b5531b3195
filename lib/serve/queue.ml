type policy = Block | Reject | Drop_oldest

type 'a push_result = Accepted | Rejected | Dropped of 'a | Closed

type 'a t = {
  capacity : int;
  pol : policy;
  items : 'a Stdlib.Queue.t;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
}

let m_depth = Obs.Metrics.gauge "serve.queue_depth"

let m_high_water = Obs.Metrics.gauge "serve.queue_high_water"

let m_idle_us = Obs.Metrics.histogram "serve.worker_idle_us"

let create ~capacity ~policy () =
  if capacity < 1 then invalid_arg "Serve.Queue.create: capacity < 1";
  {
    capacity;
    pol = policy;
    items = Stdlib.Queue.create ();
    lock = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    closed = false;
  }

let policy t = t.pol

let note_depth n =
  Obs.Metrics.set m_depth n;
  Obs.Metrics.set_max m_high_water n

let push t x =
  Mutex.lock t.lock;
  let result =
    if t.closed then Closed
    else if Stdlib.Queue.length t.items < t.capacity then begin
      Stdlib.Queue.add x t.items;
      Accepted
    end
    else
      match t.pol with
      | Reject -> Rejected
      | Drop_oldest ->
          let oldest = Stdlib.Queue.take t.items in
          Stdlib.Queue.add x t.items;
          Dropped oldest
      | Block ->
          let rec wait () =
            if t.closed then Closed
            else if Stdlib.Queue.length t.items < t.capacity then begin
              Stdlib.Queue.add x t.items;
              Accepted
            end
            else begin
              Condition.wait t.not_full t.lock;
              wait ()
            end
          in
          wait ()
  in
  (match result with
  | Accepted | Dropped _ ->
      note_depth (Stdlib.Queue.length t.items);
      Condition.signal t.not_empty
  | Rejected | Closed -> ());
  Mutex.unlock t.lock;
  result

let take_locked t =
  let x = Stdlib.Queue.take t.items in
  Obs.Metrics.set m_depth (Stdlib.Queue.length t.items);
  Condition.signal t.not_full;
  x

let pop t =
  Mutex.lock t.lock;
  (* Starvation signal: how long consumers sit blocked on an empty
     queue.  Only a pop that actually waits is observed, so under
     saturation the histogram stays near-empty and under light load it
     shows where worker time goes. *)
  let t0 =
    if Stdlib.Queue.is_empty t.items && not t.closed then
      Unix.gettimeofday ()
    else 0.
  in
  let rec wait () =
    if not (Stdlib.Queue.is_empty t.items) then Some (take_locked t)
    else if t.closed then None
    else begin
      Condition.wait t.not_empty t.lock;
      wait ()
    end
  in
  let x = wait () in
  Mutex.unlock t.lock;
  if t0 > 0. then
    Obs.Metrics.observe m_idle_us
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  x

let try_pop_where t pred =
  Mutex.lock t.lock;
  (* Rebuild the FIFO minus the first match; capacities are small
     (hundreds at most), so the O(n) scan is irrelevant next to a frame
     execution. *)
  let found = ref None in
  let rest = Stdlib.Queue.create () in
  Stdlib.Queue.iter
    (fun x ->
      if Option.is_none !found && pred x then found := Some x
      else Stdlib.Queue.add x rest)
    t.items;
  (match !found with
  | Some _ ->
      Stdlib.Queue.clear t.items;
      Stdlib.Queue.transfer rest t.items;
      Obs.Metrics.set m_depth (Stdlib.Queue.length t.items);
      Condition.signal t.not_full
  | None -> ());
  Mutex.unlock t.lock;
  !found

let length t =
  Mutex.lock t.lock;
  let n = Stdlib.Queue.length t.items in
  Mutex.unlock t.lock;
  n

let close t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.lock
