type t = {
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let size t = 1 + List.length t.workers

(* Pool observability.  Counters are process-wide (they survive pool
   reconfiguration via [set_default_domains]); the busy gauge tracks
   peak task parallelism across workers and helping callers. *)
let m_tasks = Obs.Metrics.counter "pool.tasks"

let m_worker_tasks = Obs.Metrics.counter "pool.worker_tasks"

let m_helped_tasks = Obs.Metrics.counter "pool.helped_tasks"

let m_batches = Obs.Metrics.counter "pool.batches"

let m_queue_high_water = Obs.Metrics.gauge "pool.queue_high_water"

let m_size = Obs.Metrics.gauge "pool.size"

let m_peak_parallelism = Obs.Metrics.gauge "pool.peak_parallelism"

let busy = Atomic.make 0

let run_task counter task =
  Obs.Metrics.incr counter;
  let n = 1 + Atomic.fetch_and_add busy 1 in
  Obs.Metrics.set_max m_peak_parallelism n;
  let t0 = Obs.Tracer.start () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Tracer.finish ~cat:"pool" "pool.task" t0;
      ignore (Atomic.fetch_and_add busy (-1)))
    task

(* Each batch of submitted tasks carries its own completion latch so
   unrelated batches can share the queue. *)
type batch = {
  b_lock : Mutex.t;
  b_done : Condition.t;
  mutable pending : int;
  mutable failure : exn option;
}

let worker t () =
  let rec loop () =
    Mutex.lock t.lock;
    let rec take () =
      match Queue.take_opt t.queue with
      | Some task -> Some task
      | None ->
          if t.stopping then None
          else begin
            Condition.wait t.nonempty t.lock;
            take ()
          end
    in
    let task = take () in
    Mutex.unlock t.lock;
    match task with
    | None -> ()
    | Some task ->
        run_task m_worker_tasks task;
        loop ()
  in
  loop ()

let create ?workers () =
  let workers =
    match workers with
    | Some n -> max 0 n
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      stopping = false;
      workers = [];
    }
  in
  t.workers <- List.init workers (fun _ -> Domain.spawn (worker t));
  Obs.Metrics.set m_size (size t);
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let submit t batch f =
  (* Wrapped tasks never raise: the queue and workers survive any task
     failure; the first exception is re-raised by the waiting caller.
     The submitter's request context travels with the task, so spans
     recorded inside a pool worker stay on the submitting request's
     causal flow. *)
  let ctx = Obs.Ctx.current () in
  let f () =
    if Obs.Ctx.is_none ctx then f () else Obs.Ctx.scoped ctx f
  in
  let task () =
    let outcome = try f (); None with e -> Some e in
    Mutex.lock batch.b_lock;
    (match outcome with
    | Some e when batch.failure = None -> batch.failure <- Some e
    | _ -> ());
    batch.pending <- batch.pending - 1;
    if batch.pending = 0 then Condition.broadcast batch.b_done;
    Mutex.unlock batch.b_lock
  in
  Mutex.lock t.lock;
  Queue.add task t.queue;
  let depth = Queue.length t.queue in
  Condition.signal t.nonempty;
  Mutex.unlock t.lock;
  Obs.Metrics.incr m_tasks;
  Obs.Metrics.set_max m_queue_high_water depth

(* Wait for [batch], executing queued tasks (ours or anyone's) while
   there are any: the caller only sleeps once the queue is empty, at
   which point every task of its batch is finished or running in a
   worker, so waiting on the latch cannot deadlock. *)
let finish t batch =
  let rec help () =
    Mutex.lock t.lock;
    let task = Queue.take_opt t.queue in
    Mutex.unlock t.lock;
    match task with
    | Some task ->
        run_task m_helped_tasks task;
        help ()
    | None ->
        Mutex.lock batch.b_lock;
        while batch.pending > 0 do
          Condition.wait batch.b_done batch.b_lock
        done;
        Mutex.unlock batch.b_lock
  in
  help ();
  match batch.failure with Some e -> raise e | None -> ()

let help_one t =
  Mutex.lock t.lock;
  let task = Queue.take_opt t.queue in
  Mutex.unlock t.lock;
  match task with
  | None -> false
  | Some task ->
      run_task m_helped_tasks task;
      true

let run_batch t fs =
  match fs with
  | [] -> ()
  | [ f ] -> f ()
  | fs when size t <= 1 -> List.iter (fun f -> f ()) fs
  | fs ->
      let batch =
        {
          b_lock = Mutex.create ();
          b_done = Condition.create ();
          pending = List.length fs;
          failure = None;
        }
      in
      Obs.Metrics.incr m_batches;
      List.iter (fun f -> submit t batch f) fs;
      finish t batch

let map_list t fs =
  let out = Array.make (List.length fs) None in
  run_batch t
    (List.mapi (fun i f -> fun () -> out.(i) <- Some (f ())) fs);
  Array.to_list
    (Array.map
       (function Some v -> v | None -> assert false (* run_batch waited *))
       out)

let parallel_for ?chunks t ~lo ~hi f =
  let n = hi - lo in
  if n > 0 then begin
    let chunks = min n (max 1 (match chunks with Some c -> c | None -> size t)) in
    if chunks = 1 || size t <= 1 then f lo hi
    else begin
      let per = (n + chunks - 1) / chunks in
      run_batch t
        (List.init chunks (fun c ->
             let clo = lo + (c * per) and chi = min hi (lo + ((c + 1) * per)) in
             fun () -> if clo < chi then f clo chi))
    end
  end

(* ------------------------------------------------------------------ *)
(* Global pool                                                         *)
(* ------------------------------------------------------------------ *)

let configured = ref None (* None = recommended_domain_count *)

let global : t option ref = ref None

let global_lock = Mutex.create ()

let default_domains () =
  match !configured with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count ())

let get () =
  Mutex.lock global_lock;
  let pool =
    match !global with
    | Some p -> p
    | None ->
        let p = create ~workers:(default_domains () - 1) () in
        global := Some p;
        p
  in
  Mutex.unlock global_lock;
  pool

let set_default_domains n =
  Mutex.lock global_lock;
  configured := Some (max 1 n);
  let old = !global in
  global := None;
  Mutex.unlock global_lock;
  Option.iter shutdown old
