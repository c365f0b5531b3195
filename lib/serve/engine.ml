type config = {
  workers : int;
  queue_capacity : int;
  policy : Queue.policy;
  batch : Batcher.config;
}

let default_config =
  { workers = 2; queue_capacity = 64; policy = Queue.Reject;
    batch = Batcher.default }

type outcome =
  | Done of { frame : Video.Frame.t; latency_us : float }
  | Rejected
  | Dropped
  | Timed_out
  | Failed of string

type ticket = {
  tk_lock : Mutex.t;
  tk_done : Condition.t;
  mutable tk_outcome : outcome option;
}

type request = {
  session : Session.t;
  frame_no : int;
  frame : Video.Frame.t;
  ctx : Obs.Ctx.t;
  submit_us : float;
  mutable pop_us : float;  (** when a worker claimed it; [0.] until then *)
  deadline_us : float option;
  ticket : ticket;
}

type t = {
  cfg : config;
  q : request Queue.t;
  recorder : Stats.recorder;
  flight : Obs.Recorder.t;
  slo : Obs.Slo.t option;
  tl : Gpu.Timeline.t;
  tl_lock : Mutex.t;
  inject : (session_id:int -> frame_no:int -> attempt:int -> unit) option;
  mutable domains : unit Domain.t list;
  shut : Mutex.t;  (** serialises {!shutdown} so it is idempotent *)
}

let new_ticket () =
  { tk_lock = Mutex.create (); tk_done = Condition.create (); tk_outcome = None }

(* Exactly-once completion: a second completion of the same ticket is a
   bug in the engine (a lost-or-doubled request), not a recoverable
   condition. *)
let complete tk outcome =
  Mutex.lock tk.tk_lock;
  (match tk.tk_outcome with
  | Some _ ->
      Mutex.unlock tk.tk_lock;
      invalid_arg "Serve.Engine: request completed twice"
  | None ->
      tk.tk_outcome <- Some outcome;
      Condition.broadcast tk.tk_done;
      Mutex.unlock tk.tk_lock);
  match outcome with
  | Done _ -> Stats.completed ()
  | Rejected -> Stats.rejected ()
  | Dropped -> Stats.dropped ()
  | Timed_out -> Stats.timed_out ()
  | Failed _ -> Stats.failed ()

let await tk =
  Mutex.lock tk.tk_lock;
  while Option.is_none tk.tk_outcome do
    Condition.wait tk.tk_done tk.tk_lock
  done;
  let o = Option.get tk.tk_outcome in
  Mutex.unlock tk.tk_lock;
  o

let peek tk =
  Mutex.lock tk.tk_lock;
  let o = tk.tk_outcome in
  Mutex.unlock tk.tk_lock;
  o

let expired ~now r =
  match r.deadline_us with Some d -> now > d | None -> false

(* Deposit one finished request in the flight recorder and classify it
   against the engine SLO.  Each phase also feeds a process-wide
   [serve.phase.<name>_us] histogram, so a metrics dump carries the
   latency *attribution* distribution next to the end-to-end one. *)
let finish_request t r ~outcome ~total_us ~phases ~good =
  List.iter
    (fun (name, us) ->
      Obs.Metrics.observe
        (Obs.Metrics.histogram (Printf.sprintf "serve.phase.%s_us" name))
        (int_of_float us))
    phases;
  Obs.Recorder.record t.flight
    {
      Obs.Recorder.e_request = r.ctx.Obs.Ctx.request_id;
      e_trace = r.ctx.Obs.Ctx.trace_id;
      e_label = Session.pipeline_name r.session;
      e_outcome = outcome;
      e_total_us = total_us;
      e_phases = phases;
    };
  match t.slo with
  | None -> ()
  | Some s -> if good then Obs.Slo.observe s total_us else Obs.Slo.breach s

(* Execute one request, retrying once on a transient failure.  The
   returned events are merged onto the engine timeline by the caller;
   completion happens here so a frame's latency includes everything up
   to result availability.

   Runs under the request's context, so every span recorded below —
   including kernel spans from pool workers — carries its flow id.  The
   queue-wait and batch-gather phases happened before this domain
   touched the request; their spans are emitted retroactively from the
   stamps the submitter and batcher left behind. *)
let exec_request t r =
  Obs.Ctx.scoped r.ctx @@ fun () ->
  Obs.Tracer.with_span ~cat:"serve" "serve.request" @@ fun () ->
  let exec_start = Obs.Tracer.now_us () in
  let pop_us = if r.pop_us > 0. then r.pop_us else exec_start in
  let queue_wait = Float.max 0. (pop_us -. r.submit_us) in
  let gather = Float.max 0. (exec_start -. pop_us) in
  Obs.Tracer.emit ~cat:"serve" "serve.queue_wait" ~start_us:r.submit_us
    ~dur_us:queue_wait;
  Obs.Tracer.emit ~cat:"serve" "serve.batch_gather" ~start_us:pop_us
    ~dur_us:gather;
  let attempt i =
    (match t.inject with
    | Some f -> f ~session_id:(Session.id r.session) ~frame_no:r.frame_no ~attempt:i
    | None -> ());
    Session.run_frame r.session r.frame
  in
  (* Phase durations are measured directly (not via tracer spans) so
     the flight recorder attributes latency even with tracing off. *)
  let timed_attempt i name =
    let t0 = Obs.Tracer.now_us () in
    let finish r =
      Obs.Tracer.emit ~cat:"serve" name ~start_us:t0
        ~dur_us:(Obs.Tracer.now_us () -. t0);
      r
    in
    match attempt i with
    | res -> finish (Ok (res, Obs.Tracer.now_us () -. t0))
    | exception e -> finish (Error (e, Obs.Tracer.now_us () -. t0))
  in
  let outcome, events, exec_us, retry_us =
    match timed_attempt 0 "serve.execute" with
    | Ok ((frame, events), d) -> (`Ok frame, events, d, 0.)
    | Error (_first, d0) ->
        Stats.retried ();
        (match timed_attempt 1 "serve.retry" with
        | Ok ((frame, events), d1) -> (`Ok frame, events, d0, d1)
        | Error ((e, d1)) -> (`Failed (Printexc.to_string e), [], d0, d1))
  in
  let phases =
    [ ("queue_wait", queue_wait); ("batch_gather", gather);
      ("execute", exec_us) ]
    @ (if retry_us > 0. then [ ("retry", retry_us) ] else [])
  in
  (match outcome with
  | `Ok frame ->
      let latency_us = Obs.Tracer.now_us () -. r.submit_us in
      Stats.record t.recorder latency_us;
      finish_request t r ~outcome:"done" ~total_us:latency_us ~phases
        ~good:true;
      complete r.ticket (Done { frame; latency_us })
  | `Failed msg ->
      let latency_us = Obs.Tracer.now_us () -. r.submit_us in
      finish_request t r ~outcome:("failed: " ^ msg) ~total_us:latency_us
        ~phases ~good:false;
      complete r.ticket (Failed msg));
  events

let time_out t r ~now =
  finish_request t r ~outcome:"timed_out" ~total_us:(now -. r.submit_us)
    ~phases:[ ("queue_wait", Float.max 0. (now -. r.submit_us)) ]
    ~good:false;
  Obs.Tracer.emit ~cat:"serve" ~flow:(Obs.Ctx.flow_id r.ctx)
    "serve.queue_wait" ~start_us:r.submit_us
    ~dur_us:(Float.max 0. (now -. r.submit_us));
  complete r.ticket Timed_out

let worker t () =
  let pool = Gpu.Pool.get () in
  let help () = Gpu.Pool.help_one pool in
  let stamp r = r.pop_us <- Obs.Tracer.now_us () in
  let rec loop () =
    match
      Batcher.collect ~help ~stamp t.cfg.batch
        ~key:(fun r -> Session.key r.session)
        t.q
    with
    | [] -> ()
    | batch ->
        let now = Obs.Tracer.now_us () in
        let timed_out, live = List.partition (expired ~now) batch in
        List.iter (fun r -> time_out t r ~now) timed_out;
        (match live with
        | [] -> ()
        | reqs ->
            Stats.batch ~frames:(List.length reqs);
            let events =
              Obs.Tracer.with_span ~cat:"serve" "serve.batch" (fun () ->
                  Gpu.Pool.map_list pool
                    (List.map (fun r () -> exec_request t r) reqs))
            in
            Mutex.lock t.tl_lock;
            List.iter
              (List.iter (fun e -> Gpu.Timeline.record t.tl e))
              events;
            Mutex.unlock t.tl_lock);
        loop ()
  in
  loop ()

let create ?inject ?slo ?flight_capacity cfg =
  let cfg = { cfg with workers = max 1 cfg.workers } in
  let t =
    {
      cfg;
      q = Queue.create ~capacity:cfg.queue_capacity ~policy:cfg.policy ();
      recorder = Stats.recorder ();
      flight = Obs.Recorder.create ?capacity:flight_capacity ();
      slo;
      tl = Gpu.Timeline.create ();
      tl_lock = Mutex.create ();
      inject;
      domains = [];
      shut = Mutex.create ();
    }
  in
  t.domains <- List.init cfg.workers (fun _ -> Domain.spawn (worker t));
  t

let submit t ?deadline_us session ~frame_no frame =
  Stats.submitted ();
  let ticket = new_ticket () in
  (* Each request gets a causal identity: the submitter's ambient
     context if it set one (the load generators scope one per request),
     a fresh one otherwise, so flows appear even for bare submits. *)
  let ctx =
    let cur = Obs.Ctx.current () in
    if Obs.Ctx.is_none cur then Obs.Ctx.fresh () else cur
  in
  let r =
    {
      session;
      frame_no;
      frame;
      ctx;
      submit_us = Obs.Tracer.now_us ();
      pop_us = 0.;
      deadline_us;
      ticket;
    }
  in
  (match Queue.push t.q r with
  | Queue.Accepted -> ()
  | Queue.Rejected | Queue.Closed -> complete ticket Rejected
  | Queue.Dropped victim -> complete victim.ticket Dropped);
  ticket

let shutdown t =
  Mutex.lock t.shut;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.shut) @@ fun () ->
  Obs.Tracer.with_span ~cat:"serve" "serve.drain" @@ fun () ->
  Queue.close t.q;
  List.iter Domain.join t.domains;
  t.domains <- []

let latency t = Stats.summary t.recorder

let flight t = t.flight

let slo t = t.slo

let timeline t = t.tl
