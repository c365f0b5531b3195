open Serve

(* All threshold and drain assertions here are deterministic: the
   batcher gets a virtual clock, blocking tests synchronise on atomics
   or on the queue's own close/drain semantics, and wall-clock sleeps
   never back an assertion. *)

let metric name = Option.value ~default:0 (Obs.Metrics.find name)

(* Non-blocking pop of the queue head. *)
let try_pop q = Queue.try_pop_where q (fun _ -> true)

let spin_until pred =
  while not (pred ()) do
    Domain.cpu_relax ()
  done

(* ---------- Queue: policies under concurrent producers ---------- *)

let test_queue_fifo () =
  let q = Queue.create ~capacity:4 ~policy:Queue.Reject () in
  List.iter (fun x -> ignore (Queue.push q x)) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Queue.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (try_pop q);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (try_pop q);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (try_pop q);
  Alcotest.(check (option int)) "empty" None (try_pop q)

let test_queue_capacity_validated () =
  Alcotest.(check bool) "capacity 0 rejected" true
    (try
       ignore (Queue.create ~capacity:0 ~policy:Queue.Block ());
       false
     with Invalid_argument _ -> true)

(* 4 producer domains race 100 pushes each into a capacity-50 queue
   with no consumer: exactly 50 can be accepted, the rest must be
   rejected, and nothing may be lost or duplicated. *)
let test_queue_reject_concurrent () =
  let q = Queue.create ~capacity:50 ~policy:Queue.Reject () in
  let accepted = Atomic.make 0 in
  let rejected = Atomic.make 0 in
  let producer p () =
    for i = 0 to 99 do
      match Queue.push q ((p * 100) + i) with
      | Queue.Accepted -> Atomic.incr accepted
      | Queue.Rejected -> Atomic.incr rejected
      | Queue.Dropped _ | Queue.Closed -> Alcotest.fail "unexpected result"
    done
  in
  let ds = List.init 4 (fun p -> Domain.spawn (producer p)) in
  List.iter Domain.join ds;
  Alcotest.(check int) "exactly capacity accepted" 50 (Atomic.get accepted);
  Alcotest.(check int) "the rest rejected" 350 (Atomic.get rejected);
  let drained = ref [] in
  let rec drain () =
    match try_pop q with
    | Some x ->
        drained := x :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all accepted elements present" 50
    (List.length (List.sort_uniq compare !drained))

(* Concurrent Drop_oldest: accepted pushes minus evictions must equal
   what is left in the queue — a drop is never a loss, the victim comes
   back to its producer. *)
let test_queue_drop_oldest_concurrent () =
  let q = Queue.create ~capacity:8 ~policy:Queue.Drop_oldest () in
  let accepted = Atomic.make 0 in
  let dropped = Atomic.make 0 in
  let producer p () =
    for i = 0 to 99 do
      match Queue.push q ((p * 100) + i) with
      | Queue.Accepted -> Atomic.incr accepted
      | Queue.Dropped _ ->
          (* the push itself was admitted *)
          Atomic.incr accepted;
          Atomic.incr dropped
      | Queue.Rejected | Queue.Closed -> Alcotest.fail "unexpected result"
    done
  in
  let ds = List.init 4 (fun p -> Domain.spawn (producer p)) in
  List.iter Domain.join ds;
  Alcotest.(check int) "every push admitted" 400 (Atomic.get accepted);
  Alcotest.(check int) "accepted - dropped = resident" (Queue.length q)
    (Atomic.get accepted - Atomic.get dropped)

let test_queue_drop_oldest_order () =
  let q = Queue.create ~capacity:3 ~policy:Queue.Drop_oldest () in
  for i = 1 to 5 do
    ignore (Queue.push q i)
  done;
  (* 1 and 2 were evicted oldest-first; 3..5 remain in order. *)
  Alcotest.(check (list int)) "oldest evicted first" [ 3; 4; 5 ]
    (List.filter_map (fun _ -> try_pop q) [ (); (); () ])

(* Block policy: a producer domain pushes 50 items through a 4-slot
   queue while the main domain consumes; conservation and order must
   hold (blocking pushes wake up and deliver everything). *)
let test_queue_block_conservation () =
  let q = Queue.create ~capacity:4 ~policy:Queue.Block () in
  let d =
    Domain.spawn (fun () ->
        for i = 0 to 49 do
          match Queue.push q i with
          | Queue.Accepted -> ()
          | _ -> failwith "blocking push must end Accepted"
        done)
  in
  let got = ref [] in
  for _ = 0 to 49 do
    match Queue.pop q with
    | Some x -> got := x :: !got
    | None -> Alcotest.fail "queue closed unexpectedly"
  done;
  Domain.join d;
  Alcotest.(check (list int)) "all items, in order"
    (List.init 50 Fun.id) (List.rev !got)

let test_queue_close_drains () =
  let q = Queue.create ~capacity:8 ~policy:Queue.Reject () in
  List.iter (fun x -> ignore (Queue.push q x)) [ 1; 2 ];
  Queue.close q;
  (match Queue.push q 3 with
  | Queue.Closed -> ()
  | _ -> Alcotest.fail "push after close must return Closed");
  Alcotest.(check (option int)) "drains 1" (Some 1) (Queue.pop q);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Queue.pop q);
  Alcotest.(check (option int)) "then None" None (Queue.pop q)

(* A pop blocked on an empty queue must wake up when the queue closes. *)
let test_queue_close_wakes_blocked_pop () =
  let q = Queue.create ~capacity:2 ~policy:Queue.Block () in
  let popped = Atomic.make `Waiting in
  let d =
    Domain.spawn (fun () -> Atomic.set popped (`Got (Queue.pop q : int option)))
  in
  Queue.close q;
  Domain.join d;
  Alcotest.(check bool) "woke with None" true
    (Atomic.get popped = `Got None)

let test_queue_try_pop_where () =
  let q = Queue.create ~capacity:8 ~policy:Queue.Reject () in
  List.iter (fun x -> ignore (Queue.push q x)) [ 10; 21; 30; 41 ];
  (* First odd element is 21; the others keep their order. *)
  Alcotest.(check (option int)) "first match" (Some 21)
    (Queue.try_pop_where q (fun x -> x mod 2 = 1));
  Alcotest.(check (option int)) "no match" None
    (Queue.try_pop_where q (fun x -> x > 100));
  Alcotest.(check (list int)) "others in order" [ 10; 30; 41 ]
    (List.filter_map (fun _ -> try_pop q) [ (); (); () ])

(* ---------- Batcher: thresholds with a virtual clock ---------- *)

let test_effective_batch () =
  let cfg = { Batcher.max_batch = 8; window_us = 200. } in
  Alcotest.(check int) "empty queue -> singleton" 1
    (Batcher.effective_batch cfg ~backlog:0);
  Alcotest.(check int) "light load -> backlog + 1" 4
    (Batcher.effective_batch cfg ~backlog:3);
  Alcotest.(check int) "heavy load -> max_batch" 8
    (Batcher.effective_batch cfg ~backlog:50);
  Alcotest.(check int) "max_batch clamped to 1" 1
    (Batcher.effective_batch { cfg with max_batch = 0 } ~backlog:50)

(* An empty backlog must launch the lone request immediately: the
   virtual clock proves the window was never consulted. *)
let test_collect_singleton_no_wait () =
  let q = Queue.create ~capacity:8 ~policy:Queue.Reject () in
  ignore (Queue.push q (1, "a"));
  let clock_calls = ref 0 in
  let now () =
    incr clock_calls;
    0.
  in
  let batch =
    Batcher.collect ~now
      { Batcher.max_batch = 8; window_us = 1e9 }
      ~key:fst q
  in
  Alcotest.(check (list (pair int string))) "lone request" [ (1, "a") ] batch;
  Alcotest.(check int) "window clock never read" 0 !clock_calls

(* Same-key coalescing leaves other keys queued in order. *)
let test_collect_key_separation () =
  let q = Queue.create ~capacity:8 ~policy:Queue.Reject () in
  List.iter
    (fun x -> ignore (Queue.push q x))
    [ (2, "a"); (1, "b"); (2, "c"); (1, "d") ];
  let batch =
    Batcher.collect
      { Batcher.max_batch = 8; window_us = 0. }
      ~key:fst q
  in
  Alcotest.(check (list (pair int string))) "key-2 requests coalesced"
    [ (2, "a"); (2, "c") ] batch;
  Alcotest.(check (list (pair int string))) "key-1 requests left in order"
    [ (1, "b"); (1, "d") ]
    (List.filter_map (fun _ -> try_pop q) [ (); () ])

(* The gather window closes on the injected clock: a short batch stops
   waiting exactly when now() passes window_us. *)
let test_collect_window_expires () =
  let q = Queue.create ~capacity:8 ~policy:Queue.Reject () in
  List.iter (fun x -> ignore (Queue.push q x)) [ (1, "a"); (2, "b") ];
  let t = ref 0. in
  let now () =
    t := !t +. 50.;
    !t
  in
  let batch =
    Batcher.collect ~now
      { Batcher.max_batch = 8; window_us = 200. }
      ~key:fst q
  in
  (* backlog 1 -> target 2, but the only other request has another key:
     the window must expire on the virtual clock, not block forever. *)
  Alcotest.(check (list (pair int string))) "window expired short"
    [ (1, "a") ] batch;
  Alcotest.(check int) "other key still queued" 1 (Queue.length q)

(* While waiting out the window the batcher calls help; a help that
   produces a same-key request is picked up before the window ends. *)
let test_collect_window_straggler_via_help () =
  let q = Queue.create ~capacity:8 ~policy:Queue.Reject () in
  List.iter (fun x -> ignore (Queue.push q x)) [ (1, "a"); (2, "b") ];
  let t = ref 0. in
  let now () =
    t := !t +. 10.;
    !t
  in
  let pushed = ref false in
  let help () =
    if !pushed then false
    else begin
      pushed := true;
      ignore (Queue.push q (1, "straggler"));
      true
    end
  in
  let batch =
    Batcher.collect ~now ~help
      { Batcher.max_batch = 8; window_us = 1e6 }
      ~key:fst q
  in
  Alcotest.(check (list (pair int string))) "straggler coalesced"
    [ (1, "a"); (1, "straggler") ]
    batch

let test_collect_closed_queue () =
  let q = Queue.create ~capacity:4 ~policy:Queue.Reject () in
  Queue.close q;
  Alcotest.(check (list int)) "closed+drained -> []" []
    (Batcher.collect Batcher.default ~key:Fun.id q)

(* ---------- Stats: exact percentiles ---------- *)

let test_percentile () =
  Alcotest.(check (float 1e-9)) "empty" 0. (Stats.percentile [||] ~p:50.);
  Alcotest.(check (float 1e-9)) "singleton" 7. (Stats.percentile [| 7. |] ~p:99.);
  let sample =
    Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1))
  in
  Alcotest.(check (float 1e-9)) "p50 of 1..100 shuffled" 50.
    (Stats.percentile sample ~p:50.);
  Alcotest.(check (float 1e-9)) "p95" 95. (Stats.percentile sample ~p:95.);
  Alcotest.(check (float 1e-9)) "p99" 99. (Stats.percentile sample ~p:99.)

let test_recorder_summary () =
  let r = Stats.recorder () in
  Alcotest.(check int) "empty recorder" 0 (Stats.summary r).Stats.count;
  List.iter (fun v -> Stats.record r v) [ 10.; 20.; 30.; 40. ];
  let s = Stats.summary r in
  Alcotest.(check int) "count" 4 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 25. s.Stats.mean_us;
  Alcotest.(check (float 1e-9)) "max" 40. s.Stats.max_us

let test_stats_p999 () =
  let r = Stats.recorder () in
  Array.iter
    (fun v -> Stats.record r v)
    (Array.init 2000 (fun i -> float_of_int (i + 1)));
  let s = Stats.summary r in
  (* Nearest rank over 1..2000: p99 -> 1980; p99.9 -> 1999 (the float
     product 0.999 * 2000 lands just above 1998, and ceil rounds up). *)
  Alcotest.(check (float 1e-9)) "p99" 1980. s.Stats.p99_us;
  Alcotest.(check (float 1e-9)) "p999" 1999. s.Stats.p999_us;
  Alcotest.(check bool) "ordered through the tail" true
    (s.Stats.p99_us <= s.Stats.p999_us && s.Stats.p999_us <= s.Stats.max_us)

(* Past the cap the recorder stops retaining exact samples but counts
   the loss, so a truncated summary is detectable. *)
let test_stats_recorder_cap () =
  let dropped_before = metric "stats.dropped_samples" in
  let r = Stats.recorder ~cap:3 () in
  List.iter (fun v -> Stats.record r v) [ 10.; 20.; 30.; 40.; 50. ];
  Alcotest.(check int) "retains exactly cap samples" 3
    (Stats.summary r).Stats.count;
  Alcotest.(check int) "overflow counted" 2
    (metric "stats.dropped_samples" - dropped_before);
  Alcotest.(check bool) "cap < 1 rejected" true
    (try
       ignore (Stats.recorder ~cap:0 ());
       false
     with Invalid_argument _ -> true)

(* ---------- Session: plan cache and keys ---------- *)

let fmt = { Video.Format.name = "test"; rows = 72; cols = 64 }

let test_session_cache_shared () =
  let s1 = Session.create ~opt:Optimizer.Mode.Off ~id:1 ~pipeline:Session.Sac fmt in
  let misses = metric "serve.plan_cache_misses"
  and hits = metric "serve.plan_cache_hits" in
  let s2 = Session.create ~opt:Optimizer.Mode.Off ~id:2 ~pipeline:Session.Sac fmt in
  Alcotest.(check int) "second same-shape stream compiles nothing" misses
    (metric "serve.plan_cache_misses");
  Alcotest.(check int) "and is served from the cache" (hits + 1)
    (metric "serve.plan_cache_hits");
  Alcotest.(check bool) "equal keys batch together" true
    (Session.key s1 = Session.key s2);
  let s3 = Session.create ~opt:Optimizer.Mode.Off ~id:3 ~pipeline:Session.Mde fmt in
  Alcotest.(check bool) "pipelines never share a key" false
    (Session.key s1 = Session.key s3)

let test_session_rejects_bad_shape () =
  Alcotest.(check bool) "rows not multiple of 9 rejected" true
    (try
       ignore
         (Session.create ~id:9 ~pipeline:Session.Sac
            { Video.Format.name = "bad"; rows = 70; cols = 64 });
       false
     with Invalid_argument _ -> true)

let test_session_bit_exact () =
  let frame = Video.Framegen.frame fmt 3 in
  let reference = Video.Downscaler.frame frame in
  List.iter
    (fun pipeline ->
      let s = Session.create ~opt:Optimizer.Mode.Off ~id:20 ~pipeline fmt in
      let scaled, events = Session.run_frame s frame in
      Alcotest.(check bool)
        (Session.pipeline_name s ^ " bit-exact")
        true
        (Video.Frame.equal scaled reference);
      Alcotest.(check bool)
        (Session.pipeline_name s ^ " recorded device events")
        true (events <> []))
    [ Session.Sac; Session.Mde ]

(* ---------- Engine ---------- *)

let identity_session id = Session.custom ~id fmt Fun.id

let submit_n engine session n =
  List.init n (fun i ->
      Engine.submit engine session ~frame_no:i (Video.Framegen.frame fmt i))

(* Drain-on-shutdown: every admitted request must complete Done exactly
   once even when shutdown races the workers — the tickets prove
   nothing was lost, the counters prove nothing ran twice. *)
let test_engine_drain_on_shutdown () =
  let completed_before = metric "serve.completed" in
  let engine =
    Engine.create
      {
        Engine.workers = 2;
        queue_capacity = 16;
        policy = Queue.Block;
        batch = { Batcher.max_batch = 4; window_us = 50. };
      }
  in
  let session = identity_session 100 in
  let tickets = submit_n engine session 60 in
  Engine.shutdown engine;
  List.iter
    (fun tk ->
      match Engine.await tk with
      | Engine.Done _ -> ()
      | _ -> Alcotest.fail "request lost in shutdown drain")
    tickets;
  Alcotest.(check int) "every request completed exactly once" 60
    (metric "serve.completed" - completed_before);
  Alcotest.(check int) "queue fully drained" 0 (metric "serve.queue_depth");
  (* Idempotent: a second shutdown is a no-op. *)
  Engine.shutdown engine;
  (* After shutdown, new submissions are turned away, not queued. *)
  (match
     Engine.await
       (Engine.submit engine session ~frame_no:99 (Video.Framegen.frame fmt 99))
   with
  | Engine.Rejected -> ()
  | _ -> Alcotest.fail "post-shutdown submit must reject")

let test_engine_latency_summary () =
  let engine =
    Engine.create { Engine.default_config with workers = 1 }
  in
  let tickets = submit_n engine (identity_session 110) 10 in
  List.iter (fun tk -> ignore (Engine.await tk)) tickets;
  Engine.shutdown engine;
  let s = Engine.latency engine in
  Alcotest.(check int) "latency recorded per Done" 10 s.Stats.count;
  Alcotest.(check bool) "percentiles ordered" true
    (s.Stats.p50_us <= s.Stats.p95_us && s.Stats.p95_us <= s.Stats.p99_us)

(* An absolute deadline already in the past must expire while queued. *)
let test_engine_deadline_timeout () =
  let engine =
    Engine.create { Engine.default_config with workers = 1 }
  in
  let session = identity_session 120 in
  let tk =
    Engine.submit engine
      ~deadline_us:(Obs.Tracer.now_us () -. 1_000_000.)
      session ~frame_no:0 (Video.Framegen.frame fmt 0)
  in
  (match Engine.await tk with
  | Engine.Timed_out -> ()
  | _ -> Alcotest.fail "expired deadline must time out");
  Engine.shutdown engine

(* The fault hook raises on attempt 0 only: the engine must retry once
   and still deliver the frame. *)
let test_engine_retry_recovers () =
  let retries_before = metric "serve.retries" in
  let engine =
    Engine.create
      ~inject:(fun ~session_id:_ ~frame_no:_ ~attempt ->
        if attempt = 0 then failwith "transient")
      { Engine.default_config with workers = 1 }
  in
  let tk =
    Engine.submit engine (identity_session 130) ~frame_no:0
      (Video.Framegen.frame fmt 0)
  in
  (match Engine.await tk with
  | Engine.Done _ -> ()
  | _ -> Alcotest.fail "retry must recover a transient failure");
  Engine.shutdown engine;
  Alcotest.(check bool) "retry counted" true
    (metric "serve.retries" > retries_before)

let test_engine_double_failure_fails () =
  let engine =
    Engine.create
      ~inject:(fun ~session_id:_ ~frame_no:_ ~attempt:_ ->
        failwith "permanent fault")
      { Engine.default_config with workers = 1 }
  in
  let tk =
    Engine.submit engine (identity_session 140) ~frame_no:0
      (Video.Framegen.frame fmt 0)
  in
  (match Engine.await tk with
  | Engine.Failed msg ->
      Alcotest.(check bool) "failure message preserved" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "two failed attempts must end Failed");
  Engine.shutdown engine

(* Overload under Reject: one worker is parked on a gated request, the
   queue fills, and the overflow submission must come back Rejected
   while every admitted request still completes. *)
let test_engine_reject_overload () =
  let gate = Atomic.make false in
  let started = Atomic.make 0 in
  let session =
    Session.custom ~id:150 fmt (fun frame ->
        Atomic.incr started;
        spin_until (fun () -> Atomic.get gate);
        frame)
  in
  let engine =
    Engine.create
      {
        Engine.workers = 1;
        queue_capacity = 2;
        policy = Queue.Reject;
        batch = { Batcher.max_batch = 1; window_us = 0. };
      }
  in
  let t0 =
    Engine.submit engine session ~frame_no:0 (Video.Framegen.frame fmt 0)
  in
  (* Wait until the worker is provably executing (not queued). *)
  spin_until (fun () -> Atomic.get started > 0);
  let queued = submit_n engine session 2 in
  let overflow =
    Engine.submit engine session ~frame_no:9 (Video.Framegen.frame fmt 9)
  in
  (match Engine.peek overflow with
  | Some Engine.Rejected -> ()
  | _ -> Alcotest.fail "overflow past capacity must reject immediately");
  Atomic.set gate true;
  List.iter
    (fun tk ->
      match Engine.await tk with
      | Engine.Done _ -> ()
      | _ -> Alcotest.fail "admitted request must complete")
    (t0 :: queued);
  Engine.shutdown engine

(* End-to-end through the engine: both real pipelines, frames bit-exact
   against the reference downscaler. *)
let test_engine_pipelines_bit_exact () =
  let engine =
    Engine.create
      {
        Engine.workers = 2;
        queue_capacity = 16;
        policy = Queue.Block;
        batch = { Batcher.max_batch = 4; window_us = 50. };
      }
  in
  let sessions =
    [
      Session.create ~opt:Optimizer.Mode.Off ~id:160 ~pipeline:Session.Sac fmt;
      Session.create ~opt:Optimizer.Mode.Fuse ~id:161 ~pipeline:Session.Mde fmt;
    ]
  in
  let expected =
    List.init 4 (fun n -> Video.Downscaler.frame (Video.Framegen.frame fmt n))
  in
  List.iter
    (fun session ->
      let tickets = submit_n engine session 4 in
      List.iteri
        (fun n tk ->
          match Engine.await tk with
          | Engine.Done { frame; _ } ->
              Alcotest.(check bool)
                (Printf.sprintf "%s frame %d bit-exact"
                   (Session.pipeline_name session) n)
                true
                (Video.Frame.equal frame (List.nth expected n))
          | _ -> Alcotest.fail "pipeline request did not complete")
        tickets)
    sessions;
  Engine.shutdown engine;
  Alcotest.(check bool) "device events merged onto engine timeline" true
    (Gpu.Timeline.events (Engine.timeline engine) <> [])

(* Every completion deposits a flight-recorder entry with per-phase
   attribution and is classified against the engine SLO. *)
let test_engine_flight_and_slo () =
  let slo =
    Obs.Slo.create ~name:"test_serve" ~objective_us:1e9 ~budget:0.5 ()
  in
  let engine =
    Engine.create ~slo ~flight_capacity:8
      { Engine.default_config with workers = 1 }
  in
  let tickets = submit_n engine (identity_session 190) 5 in
  List.iter (fun tk -> ignore (Engine.await tk)) tickets;
  Engine.shutdown engine;
  let flight = Engine.flight engine in
  Alcotest.(check int) "every completion deposited" 5
    (Obs.Recorder.recorded flight);
  List.iter
    (fun (e : Obs.Recorder.entry) ->
      Alcotest.(check string) "outcome" "done" e.Obs.Recorder.e_outcome;
      Alcotest.(check bool) "causal identity attached" true
        (e.Obs.Recorder.e_request > 0);
      let phases = List.map fst e.Obs.Recorder.e_phases in
      List.iter
        (fun ph ->
          Alcotest.(check bool) (ph ^ " attributed") true
            (List.mem ph phases))
        [ "queue_wait"; "batch_gather"; "execute" ];
      let phase_sum =
        List.fold_left (fun a (_, us) -> a +. us) 0. e.Obs.Recorder.e_phases
      in
      Alcotest.(check bool) "phases within the end-to-end total" true
        (phase_sum <= e.Obs.Recorder.e_total_us +. 1.))
    (Obs.Recorder.entries flight);
  Alcotest.(check int) "slo classified every request" 5 (Obs.Slo.total slo);
  Alcotest.(check int) "no breaches under a huge objective" 0
    (Obs.Slo.breaches slo);
  Alcotest.(check bool) "engine exposes its slo" true
    (Engine.slo engine <> None)

(* A fault-injected retry must stay causally linked to its request: the
   serve.retry span carries the same flow id as the request's other
   phase spans, so Perfetto draws them as one flow. *)
let test_engine_retry_flow_linked () =
  Obs.Tracer.set_enabled true;
  Obs.Tracer.clear ();
  let engine =
    Engine.create
      ~inject:(fun ~session_id:_ ~frame_no:_ ~attempt ->
        if attempt = 0 then failwith "transient")
      { Engine.default_config with workers = 1 }
  in
  let tk =
    Engine.submit engine (identity_session 191) ~frame_no:0
      (Video.Framegen.frame fmt 0)
  in
  (match Engine.await tk with
  | Engine.Done _ -> ()
  | _ -> Alcotest.fail "retry must recover");
  Engine.shutdown engine;
  let spans = Obs.Tracer.dump () in
  Obs.Tracer.set_enabled false;
  Obs.Tracer.clear ();
  let flow_of name =
    match
      List.find_opt
        (fun (s : Obs.Tracer.span) -> s.Obs.Tracer.sp_name = name)
        spans
    with
    | Some s -> s.Obs.Tracer.sp_flow
    | None -> Alcotest.failf "span %s missing from the trace" name
  in
  let retry_flow = flow_of "serve.retry" in
  Alcotest.(check bool) "retry span carries a flow id" true (retry_flow > 0);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " linked into the same flow") retry_flow
        (flow_of name))
    [ "serve.request"; "serve.queue_wait"; "serve.batch_gather";
      "serve.execute" ]

(* The modelled-device half of a serving trace is a function of the
   frames served, not of host parallelism: rendering the same session
   run under 1 and 3 pool domains must be byte-identical. *)
let test_session_device_trace_across_domains () =
  Obs.Tracer.set_enabled true;
  let doc_at domains =
    Gpu.Pool.set_default_domains domains;
    Gpu.Trace_export.clear ();
    let s =
      Session.create ~opt:Optimizer.Mode.Off ~id:192 ~pipeline:Session.Sac
        fmt
    in
    let tl = Gpu.Timeline.create () in
    List.iter
      (fun n ->
        let _, events = Session.run_frame s (Video.Framegen.frame fmt n) in
        List.iter (Gpu.Timeline.record tl) events)
      [ 0; 1; 2 ];
    Gpu.Trace_export.register ~name:"serve" tl;
    Gpu.Trace_export.device_only_json ()
  in
  let one = doc_at 1 in
  let three = doc_at 3 in
  Obs.Tracer.set_enabled false;
  Gpu.Trace_export.clear ();
  Gpu.Pool.set_default_domains 1;
  Alcotest.(check bool) "device slices present" true
    (String.length one > 200);
  Alcotest.(check string) "byte-identical across --domains" one three

let () =
  Alcotest.run "serve"
    [
      ( "queue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "capacity validated" `Quick
            test_queue_capacity_validated;
          Alcotest.test_case "reject under concurrent producers" `Quick
            test_queue_reject_concurrent;
          Alcotest.test_case "drop-oldest under concurrent producers" `Quick
            test_queue_drop_oldest_concurrent;
          Alcotest.test_case "drop-oldest evicts in order" `Quick
            test_queue_drop_oldest_order;
          Alcotest.test_case "block conserves across domains" `Quick
            test_queue_block_conservation;
          Alcotest.test_case "close drains" `Quick test_queue_close_drains;
          Alcotest.test_case "close wakes blocked pop" `Quick
            test_queue_close_wakes_blocked_pop;
          Alcotest.test_case "try_pop_where preserves order" `Quick
            test_queue_try_pop_where;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "effective batch" `Quick test_effective_batch;
          Alcotest.test_case "singleton launches immediately" `Quick
            test_collect_singleton_no_wait;
          Alcotest.test_case "key separation" `Quick
            test_collect_key_separation;
          Alcotest.test_case "window expires on virtual clock" `Quick
            test_collect_window_expires;
          Alcotest.test_case "help feeds stragglers" `Quick
            test_collect_window_straggler_via_help;
          Alcotest.test_case "closed queue" `Quick test_collect_closed_queue;
        ] );
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "recorder summary" `Quick test_recorder_summary;
          Alcotest.test_case "p999 tail" `Quick test_stats_p999;
          Alcotest.test_case "recorder cap counts drops" `Quick
            test_stats_recorder_cap;
        ] );
      ( "session",
        [
          Alcotest.test_case "plan cache shared" `Quick
            test_session_cache_shared;
          Alcotest.test_case "bad shape rejected" `Quick
            test_session_rejects_bad_shape;
          Alcotest.test_case "bit-exact" `Quick test_session_bit_exact;
        ] );
      ( "engine",
        [
          Alcotest.test_case "drain on shutdown" `Quick
            test_engine_drain_on_shutdown;
          Alcotest.test_case "latency summary" `Quick
            test_engine_latency_summary;
          Alcotest.test_case "deadline timeout" `Quick
            test_engine_deadline_timeout;
          Alcotest.test_case "retry recovers" `Quick
            test_engine_retry_recovers;
          Alcotest.test_case "double failure fails" `Quick
            test_engine_double_failure_fails;
          Alcotest.test_case "reject overload" `Quick
            test_engine_reject_overload;
          Alcotest.test_case "pipelines bit-exact end to end" `Quick
            test_engine_pipelines_bit_exact;
          Alcotest.test_case "flight recorder and slo" `Quick
            test_engine_flight_and_slo;
          Alcotest.test_case "retry causally linked" `Quick
            test_engine_retry_flow_linked;
        ] );
      ( "trace",
        [
          Alcotest.test_case "device tracks identical across domains"
            `Quick test_session_device_trace_across_domains;
        ] );
    ]
