(* The repository benchmark.

     perf.exe --workload W --seed N --seconds S --trace 0|1
     perf.exe check-spec BENCHMARK.json

   A run measures one workload for about S seconds and prints, as its
   last line, one JSON object: with --trace 0 the end-to-end metrics,
   with --trace 1 the per-layer ledger.  The driver reaches the program
   only through public library calls; it times each layer from outside
   and reads the existing [Obs.Metrics] counters as deltas around those
   calls.

   Each run is split into segments, and every segment is a fresh child
   process (this executable, re-invoked with [segment]), so the
   process-wide kernel, cost and tuned-plan caches start empty in each,
   as they do for a user starting [sacc], [gaspardcl], [downscale] or
   [served].  That is also how set-up is measured several times per
   run: set-up is the time from spawning a segment to its first timed
   call.  Every frame any segment produces is compared bit for bit with
   the golden [Video.Downscaler]. *)

open Perfkit

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type route = Sac | Gaspard

let route_name = function Sac -> "sac" | Gaspard -> "gaspard"

(* A run does a fixed amount of work, sized from --seconds with the
   nominal costs below (measured on the reference machine of
   README.md), so that it lasts about that long there.  Fixed work keeps
   sample counts and peak memory independent of how fast the host
   happens to be. *)
type kind =
  | Compile of { pair_s : float }
      (** one cold compile per segment, SAC and Gaspard2 alternating;
          [pair_s]: nominal seconds per pair of segments *)
  | Frames of { pool : int; pair_s : float }
      (** steady-state frames, SAC then Gaspard2 on each frame, drawn
          from [pool] seeded frames; [pair_s]: nominal seconds per such
          pair *)
  | Serve of { rate_hz : float; pool : int; capacity_rps : float }
      (** an open-loop Poisson phase at [rate_hz], then a closed-loop
          phase sized by the nominal [capacity_rps] *)

type workload = {
  name : string;
  fmt : Video.Format.t;
  opt : Optimizer.Mode.t;
  domains : int;  (** size of the shared execution pool *)
  segments : int;  (** child processes per run (Compile: the minimum) *)
  kind : kind;
}

let workloads =
  [
    {
      name = "compile-qcif-auto";
      fmt = Video.Format.qcif;
      opt = Optimizer.Mode.Auto;
      domains = 1;
      segments = 4;
      kind = Compile { pair_s = 4.7 };
    };
    {
      name = "frames-cif-fuse";
      fmt = Video.Format.cif;
      opt = Optimizer.Mode.Fuse;
      domains = 1;
      segments = 3;
      kind = Frames { pool = 4; pair_s = 0.38 };
    };
    {
      name = "frames-1080p-off";
      fmt = Video.Format.hdtv_1080;
      opt = Optimizer.Mode.Off;
      domains = 1;
      segments = 2;
      kind = Frames { pool = 2; pair_s = 3.5 };
    };
    {
      name = "serve-qcif-mixed";
      fmt = Video.Format.qcif;
      opt = Optimizer.Mode.Fuse;
      domains = 2;
      segments = 2;
      (* About a sixth of the engine's capacity, so most requests find
         both workers idle and the median latency is a service time;
         at 10 and 20 req/s it flipped between the idle and the
         overlapped case from run to run. *)
      kind = Serve { rate_hz = 6.; pool = 8; capacity_rps = 38. };
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* A completed request slower than this, counted from its due time,
   misses the serving objective. *)
let slo_ms = 250.

(* ------------------------------------------------------------------ *)
(* Calls into the program                                              *)
(* ------------------------------------------------------------------ *)

let span = Ledger.span

let counter name =
  float_of_int (Option.value ~default:0 (Obs.Metrics.find name))

let hist_sum name =
  match Obs.Metrics.histogram_snapshot name with
  | Some (_, sum, _) -> float_of_int sum
  | None -> 0.

let gate what = function Ok () -> () | Error m -> failwith (what ^ ": " ^ m)

type input = Sac_source of string | Gaspard_model of Mde.Marte.model

(* The program a compile starts from, built as part of set-up. *)
let input fmt route =
  let rows = fmt.Video.Format.rows and cols = fmt.Video.Format.cols in
  match route with
  | Sac -> Sac_source (Sac.Programs.downscaler ~generic:false ~rows ~cols)
  | Gaspard -> Gaspard_model (Mde.Chain.downscaler_model ~rows ~cols)

type compiled =
  | Sac_plan of Sac_cuda.Plan.t
  | Gaspard_gen of Mde.Codegen.generated

let digest = function
  | Sac_plan p -> Optimizer.Cache.canonical_digest p
  | Gaspard_gen g -> Optimizer.Cache.canonical_digest g

(* The one call a [sacc] or [gaspardcl] user makes. *)
let compile_one_call opt = function
  | Sac_source src ->
      Sac_plan (fst (Sac_cuda.Compile.plan_of_source ~opt src ~entry:"main"))
  | Gaspard_model model -> Gaspard_gen (Mde.Chain.transform_exn ~opt model)

let searches = ref 0

let search f =
  incr searches;
  span "optimizer.search" f

let record_fusion (stats : Gpu.Fuse.stats) =
  if stats.kernels_eliminated > 0 then Gpu.Fuse.record stats

(* The same compile split into its public stages, one span each.  The
   SAC split gates the untuned plan once more than the one call does
   (inside [Compile.plan ~opt:Off]); trace_overhead_frac includes that
   extra work. *)
let compile_decomposed opt = function
  | Sac_source src ->
      let ast = span "sac.parse" (fun () -> Sac.Parser.program src) in
      let fd, _ =
        span "sac.optimize" (fun () -> Sac.Pipeline.optimize ast ~entry:"main")
      in
      let p =
        span "sac_cuda.lower" (fun () ->
            Sac_cuda.Compile.plan ~opt:Optimizer.Mode.Off fd)
      in
      let p =
        match opt with
        | Optimizer.Mode.Off -> p
        | Fuse ->
            search (fun () ->
                let p, stats = Sac_cuda.Fuse_plan.optimize p in
                Gpu.Fuse.record stats;
                p)
        | Auto ->
            search (fun () ->
                let p, stats, _ = Sac_cuda.Autotune.tune p in
                record_fusion stats;
                p)
      in
      if opt <> Optimizer.Mode.Off then
        span "analysis.gate" (fun () ->
            gate "sac verify" (Sac_cuda.Verify.gate p);
            gate "sac perf-lint" (Sac_cuda.Verify.perf_gate p));
      Sac_plan p
  | Gaspard_model model ->
      span "mde.validate" (fun () ->
          if Arrayol.Validate.check ~loc:"mde" model.Mde.Marte.application <> []
          then failwith "gaspard: application validation failed");
      let g =
        span "mde.lower" (fun () ->
            let model = Mde.Marte.allocate_data_parallel model in
            ignore (Arrayol.Schedule.compute model.Mde.Marte.application);
            Mde.Codegen.generate model)
      in
      let g =
        match opt with
        | Optimizer.Mode.Off -> g
        | Fuse ->
            search (fun () ->
                let g, stats = Mde.Fuse_chain.optimize g in
                Gpu.Fuse.record stats;
                g)
        | Auto ->
            search (fun () ->
                let g, stats, _ = Mde.Autotune.tune g in
                record_fusion stats;
                g)
      in
      span "analysis.gate" (fun () ->
          let tasks = g.Mde.Codegen.kernel_tasks in
          gate "gaspard verify"
            (Mde.Verify.gate ~file:"mde:opencl2verified" tasks);
          gate "gaspard perf-lint"
            (Mde.Verify.perf_gate ~file:"mde:opencl2perflint" tasks));
      Gaspard_gen g

let compile ~traced opt input =
  if traced then compile_decomposed opt input else compile_one_call opt input

(* Runtime init plus the frame's execution calls: [Sac_cuda.Exec.run]
   once per plane, or one [Mde.Chain.run].  Returns the scaled frame
   and its modelled device microseconds. *)
let execute opt compiled frame =
  let liveness = Optimizer.Mode.liveness opt in
  match compiled with
  | Sac_plan plan ->
      span "exec.sac" (fun () ->
          let rt = Cuda.Runtime.init () in
          let run ch plane =
            (Sac_cuda.Exec.run rt plan ~liveness
               ~plane_tag:(Video.Frame.channel_name ch)
               ~args:[ ("frame", plane) ])
              .Sac_cuda.Exec.result
          in
          let out = Video.Frame.map_planes run frame in
          (out, Cuda.Runtime.elapsed_us rt))
  | Gaspard_gen gen ->
      span "exec.gaspard" (fun () ->
          let ctx = Opencl.Runtime.create_context () in
          let plane = Video.Frame.plane frame in
          let outs =
            Mde.Chain.run ctx gen ~liveness
              ~inputs:
                [
                  ("r_in", plane Video.Frame.R);
                  ("g_in", plane Video.Frame.G);
                  ("b_in", plane Video.Frame.B);
                ]
          in
          let out name = List.assoc name outs in
          ( { Video.Frame.r = out "r_out"; g = out "g_out"; b = out "b_out" },
            Opencl.Runtime.elapsed_us ctx ))

(* ------------------------------------------------------------------ *)
(* Segments (child processes)                                          *)
(* ------------------------------------------------------------------ *)

(* What one segment reports to the parent. *)
type report = {
  mutable first : float;  (** epoch seconds of the first timed call *)
  mutable ops : (route * float) list;  (** timed operations, in ms *)
  mutable busy_done : int;  (** operations completed in closed loop *)
  mutable busy_s : float;  (** ... and the time they took *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** outputs that were not bit-exact *)
  mutable digests : (route * string) list;  (** of every compiled plan *)
  counters : (string, float) Hashtbl.t;
  modelled_us : (string, float) Hashtbl.t;
}

let bump r name v =
  Hashtbl.replace r.counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt r.counters name))

(* Counters read as deltas around the execution calls; the ledger
   reports them per frame. *)
let frame_counters () =
  let gc = Gc.quick_stat () in
  [
    ("launches", counter "gpu.launches");
    ("h2d_bytes", counter "gpu.h2d_bytes");
    ("reused", counter "fusion.buffers_reused");
    ("minor_words", gc.Gc.minor_words);
    ("major", float_of_int gc.Gc.major_collections);
  ]

let account r ~frames before =
  bump r "frames" (float_of_int frames);
  List.iter2
    (fun (name, v0) (_, v1) -> bump r name (v1 -. v0))
    before (frame_counters ())

let metered r f =
  let before = frame_counters () in
  let v = f () in
  account r ~frames:1 before;
  v

let check r ~golden out =
  r.attempted <- r.attempted + 1;
  let equal = span "video.check" (fun () -> Video.Frame.equal out golden) in
  if not equal then begin
    r.wrong <- r.wrong + 1;
    r.failed <- r.failed + 1
  end

let timed_op r route f =
  let t0 = Unix.gettimeofday () in
  let v = span ("op." ^ route_name route) f in
  let dt = Unix.gettimeofday () -. t0 in
  r.ops <- (route, 1000. *. dt) :: r.ops;
  r.busy_done <- r.busy_done + 1;
  r.busy_s <- r.busy_s +. dt;
  v

let frame_numbers rng n =
  List.init n (fun _ -> Random.State.int rng 1_000_000)

let with_golden fmt numbers =
  List.map
    (fun n ->
      let frame =
        span "video.framegen" (fun () -> Video.Framegen.frame fmt n)
      in
      (frame, span "video.reference" (fun () -> Video.Downscaler.frame frame)))
    numbers

let compile_route r ~traced w route =
  let c = compile ~traced w.opt (input w.fmt route) in
  r.digests <- (route, digest c) :: r.digests;
  c

(* An untimed frame (a warm-up or a check frame). *)
let run_frame r w ~route compiled (frame, golden) =
  let out, us = metered r (fun () -> execute w.opt compiled frame) in
  Hashtbl.replace r.modelled_us (route_name route) us;
  check r ~golden out

(* compile-*: set-up is the source or model build; the timed call is
   the cold compile; afterwards, untimed, the plan is emitted through
   every backend and one frame runs through it, checked bit-exact. *)
let compile_segment w r ~rng ~traced route =
  let input = span "setup" (fun () -> input w.fmt route) in
  r.first <- Unix.gettimeofday ();
  let c =
    span "timed" (fun () ->
        timed_op r route (fun () -> compile ~traced w.opt input))
  in
  r.digests <- (route, digest c) :: r.digests;
  let bytes name text = bump r name (float_of_int (String.length text)) in
  span "emit" (fun () ->
      match c with
      | Sac_plan p ->
          let name = "downscaler" in
          bytes "emit.cuda_bytes" (Sac_cuda.Emit_cu.source ~name p);
          bytes "emit.opencl_bytes"
            (Sac_opencl.Backend.sources ~name p).Sac_opencl.Backend.cl;
          bytes "emit.metal_bytes"
            (Sac_metal.Backend.sources ~name p).Sac_metal.Backend.metal
      | Gaspard_gen g ->
          bytes "emit.gaspard_cl_bytes"
            (Mde.Codegen.render g).Mde.Codegen.cl_source);
  List.iter (run_frame r w ~route c) (with_golden w.fmt (frame_numbers rng 1))

(* frames-*: compile both routes, warm each up on one frame (the first
   execution of a plan also prepares its kernels), then run SAC and
   Gaspard2 on each of [pairs] frames. *)
let frames_segment w r ~rng ~traced ~pairs ~pool =
  let routes, inputs =
    span "setup" (fun () ->
        let inputs =
          Array.of_list (with_golden w.fmt (frame_numbers rng pool))
        in
        let routes =
          List.map (fun route -> (route, compile_route r ~traced w route))
            [ Sac; Gaspard ]
        in
        List.iter (fun (route, c) -> run_frame r w ~route c inputs.(0)) routes;
        (routes, inputs))
  in
  r.first <- Unix.gettimeofday ();
  span "timed" (fun () ->
      for i = 0 to pairs - 1 do
        List.iter
          (fun (route, c) ->
            let frame, golden = inputs.(i mod pool) in
            let out, _ =
              timed_op r route (fun () ->
                  metered r (fun () -> execute w.opt c frame))
            in
            check r ~golden out)
          routes
      done)

let session_route s =
  match Serve.Session.pipeline_name s with "sac" -> Sac | _ -> Gaspard

let tally (c : Stats.counts) = function
  | Serve.Engine.Done _ -> { c with completed = c.completed + 1 }
  | Rejected -> { c with rejected = c.rejected + 1 }
  | Dropped -> { c with dropped = c.dropped + 1 }
  | Timed_out -> { c with timed_out = c.timed_out + 1 }
  | Failed _ -> { c with failed = c.failed + 1 }

(* serve-*: the [served] defaults over 4 sessions (2 per route) sharing
   2 cached plans.  Phase A: an open loop of Poisson arrivals from this
   thread, each request timed from its due time.  Phase B: 4 clients in
   a closed loop, polled from the same thread, for capacity. *)
let serve_segment w r ~rng ~budget ~rate_hz ~pool ~capacity_rps =
  let sessions, inputs, engine =
    span "setup" (fun () ->
        let sessions =
          Array.init 4 (fun id ->
              let pipeline =
                if id < 2 then Serve.Session.Sac else Serve.Session.Mde
              in
              span "serve.session_create" (fun () ->
                  Serve.Session.create ~opt:w.opt ~id ~pipeline w.fmt))
        in
        let inputs =
          Array.of_list (with_golden w.fmt (frame_numbers rng pool))
        in
        Array.iter
          (fun s ->
            let frame, golden = inputs.(0) in
            let route = session_route s in
            let out, events =
              span
                ("exec." ^ route_name route)
                (fun () -> Serve.Session.run_frame s frame)
            in
            Hashtbl.replace r.modelled_us (route_name route)
              (List.fold_left (fun a e -> a +. e.Gpu.Timeline.us) 0. events);
            check r ~golden out)
          sessions;
        (sessions, inputs, Serve.Engine.create Serve.Engine.default_config))
  in
  let frames_before = frame_counters ()
  and serve_counters =
    [
      "serve.batches";
      "serve.batched_frames";
      "serve.rejected";
      "pool.helped_tasks";
      "pool.worker_tasks";
    ]
  and phases = [ "queue_wait"; "batch_gather"; "execute" ] in
  let phase_sum p = hist_sum (Printf.sprintf "serve.phase.%s_us" p) in
  let counters_before = List.map counter serve_counters
  and phases_before = List.map phase_sum phases in
  let counts = ref Stats.no_requests in
  let submit ~flow si fi =
    counts := { !counts with submitted = !counts.submitted + 1 };
    span ~flow "serve.submit" (fun () ->
        Serve.Engine.submit engine sessions.(si) ~frame_no:fi
          (fst inputs.(fi)))
  in
  (* The request's latency when it completed, after checking its frame. *)
  let settle fi outcome =
    counts := tally !counts outcome;
    match outcome with
    | Serve.Engine.Done { frame; latency_us } ->
        check r ~golden:(snd inputs.(fi)) frame;
        Some latency_us
    | _ ->
        r.attempted <- r.attempted + 1;
        r.failed <- r.failed + 1;
        None
  in
  (* Phase A: the arrival schedule (seeded Poisson gaps, the sessions in
     turn) is fixed before the first request. *)
  let n_a = max 10 (int_of_float (Float.round (0.8 *. budget *. rate_hz))) in
  let schedule =
    let t = ref 0. in
    List.init n_a (fun i ->
        t := !t -. (log (1. -. Random.State.float rng 1.) /. rate_hz);
        (i, !t, i mod 4, Random.State.int rng pool))
  in
  r.first <- Unix.gettimeofday ();
  let latencies = ref [] and late = ref 0 and phase_a = ref Stats.no_requests in
  span "timed" (fun () ->
      let t0 = r.first in
      let tickets =
        List.map
          (fun (i, at, si, fi) ->
            let due = t0 +. at in
            let now = Unix.gettimeofday () in
            if due > now then
              span "load.wait" (fun () -> Unix.sleepf (due -. now));
            let submitted = Unix.gettimeofday () in
            if submitted -. due > 0.001 then incr late;
            (due, submitted, si, fi, submit ~flow:(i + 1) si fi))
          schedule
      in
      List.iter
        (fun (due, submitted, si, fi, ticket) ->
          let outcome =
            span "load.wait" (fun () -> Serve.Engine.await ticket)
          in
          Option.iter
            (fun engine_latency_us ->
              let ms =
                Stats.latency_from_due_ms ~due_s:due ~submit_s:submitted
                  ~engine_latency_us
              in
              latencies := ms :: !latencies;
              r.ops <- (session_route sessions.(si), ms) :: r.ops)
            (settle fi outcome))
        tickets;
      phase_a := !counts;
      (* Phase B: each client resubmits as soon as its request completes,
         [per_client] times in all. *)
      let per_client =
        max 1 (int_of_float (Float.round (0.2 *. budget *. capacity_rps /. 4.)))
      in
      let tb = Unix.gettimeofday () in
      let next = ref n_a in
      let launch si k =
        incr next;
        let fi = Random.State.int rng pool in
        (si, k, fi, submit ~flow:!next si fi)
      in
      let outstanding = ref (List.init 4 (fun si -> launch si 1)) in
      span "load.wait" (fun () ->
          while !outstanding <> [] do
            outstanding :=
              List.filter_map
                (fun ((si, k, fi, t) as o) ->
                  match Serve.Engine.peek t with
                  | None -> Some o
                  | Some outcome ->
                      if settle fi outcome <> None then
                        r.busy_done <- r.busy_done + 1;
                      if k < per_client then Some (launch si (k + 1)) else None)
                !outstanding;
            if !outstanding <> [] then Unix.sleepf 0.0002
          done);
      r.busy_s <- Unix.gettimeofday () -. tb);
  Serve.Engine.shutdown engine;
  if not (Stats.balanced !counts) then failwith "serve: a request was lost";
  account r ~frames:!counts.completed frames_before;
  List.iter2
    (fun name v -> bump r name (counter name -. v))
    serve_counters counters_before;
  List.iter2
    (fun p v -> bump r ("phase." ^ p) (phase_sum p -. v))
    phases phases_before;
  bump r "requests" (float_of_int n_a);
  bump r "late" (float_of_int !late);
  bump r "slo_misses"
    (float_of_int (Stats.slo_misses !phase_a ~limit_ms:slo_ms !latencies))

let peak_rss_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some line -> (
            try Scanf.sscanf line "VmHWM: %d kB" Fun.id
            with Scanf.Scan_failure _ | End_of_file -> go ())
      in
      go ())

let segment_main w ~seed ~index ~budget ~traced ~route =
  (* A segment that hangs fails its run instead of stalling it. *)
  ignore (Unix.alarm (60 + int_of_float budget));
  Gpu.Pool.set_default_domains w.domains;
  Ledger.enabled := traced;
  let rng = Random.State.make [| seed; index |] in
  let r =
    {
      first = 0.;
      ops = [];
      busy_done = 0;
      busy_s = 0.;
      attempted = 0;
      failed = 0;
      wrong = 0;
      digests = [];
      counters = Hashtbl.create 32;
      modelled_us = Hashtbl.create 2;
    }
  in
  let totals =
    [
      "gpu.cost_profiles";
      "gpu.cost_hits";
      "gpu.compiles";
      "gpu.compile_hits";
      "optimizer.candidates";
      "optimizer.rules_applied";
      "optimizer.verify_rejections";
    ]
  in
  let before = List.map counter totals in
  (match w.kind with
  | Compile _ -> compile_segment w r ~rng ~traced route
  | Frames { pool; pair_s } ->
      let pairs = max 1 (int_of_float (Float.round (budget /. pair_s))) in
      frames_segment w r ~rng ~traced ~pairs ~pool
  | Serve { rate_hz; pool; capacity_rps } ->
      serve_segment w r ~rng ~budget ~rate_hz ~pool ~capacity_rps);
  List.iter2 (fun n v -> bump r n (counter n -. v)) totals before;
  bump r "searches" (float_of_int !searches);
  bump r "alloc_high_water" (counter "gpu.alloc_high_water_bytes");
  bump r "peak_parallelism" (counter "pool.peak_parallelism");
  let table h =
    Obs.Json.Obj (Hashtbl.fold (fun k v acc -> (k, Obs.Json.Num v) :: acc) h [])
  in
  let int i = Obs.Json.Num (float_of_int i) in
  print_endline
    (Obs.Json.render
       (Obj
          [
            ("first", Num r.first);
            ( "ops",
              Arr
                (List.rev_map
                   (fun (route, ms) ->
                     Obs.Json.Arr [ Str (route_name route); Num ms ])
                   r.ops) );
            ("busy_done", int r.busy_done);
            ("busy_s", Num r.busy_s);
            ("attempted", int r.attempted);
            ("failed", int r.failed);
            ("wrong", int r.wrong);
            ( "digests",
              Arr
                (List.map
                   (fun (route, d) ->
                     Obs.Json.Arr [ Str (route_name route); Str d ])
                   r.digests) );
            ("rss_kb", int (peak_rss_kb ()));
            ("counters", table r.counters);
            ("modelled_us", table r.modelled_us);
            ("spans", Ledger.to_json (Ledger.spans ()));
          ]))

(* ------------------------------------------------------------------ *)
(* The parent: spawn segments, aggregate, report                       *)
(* ------------------------------------------------------------------ *)

type segment = {
  index : int;
  traced : bool;
  spawned : float;
  wall : float;  (** spawn to exit *)
  json : Obs.Json.t;
}

let field name s =
  match Obs.Json.member name s.json with
  | Some v -> v
  | None -> failwith ("segment report lacks " ^ name)

let num name s =
  match field name s with Obs.Json.Num f -> f | _ -> failwith name

let entries name s =
  match field name s with
  | Obs.Json.Obj l ->
      List.filter_map
        (function k, Obs.Json.Num v -> Some (k, v) | _ -> None)
        l
  | _ -> []

let pairs name s =
  match field name s with
  | Obs.Json.Arr l ->
      List.map
        (function
          | Obs.Json.Arr [ Str a; b ] -> (a, b)
          | _ -> failwith ("malformed " ^ name))
        l
  | _ -> []

let spawn_segment w ~seed ~index ~budget ~traced ~route =
  let args =
    [|
      Sys.executable_name;
      "segment";
      w.name;
      string_of_int seed;
      string_of_int index;
      Printf.sprintf "%.3f" budget;
      (if traced then "1" else "0");
      route_name route;
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let spawned = Unix.gettimeofday () in
  let pid =
    Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out =
    Fun.protect
      ~finally:(fun () -> Unix.close rd)
      (fun () -> In_channel.input_all (Unix.in_channel_of_descr rd))
  in
  let _, status = Unix.waitpid [] pid in
  let wall = Unix.gettimeofday () -. spawned in
  if status <> Unix.WEXITED 0 then
    failwith (Printf.sprintf "segment %d of %s failed" index w.name);
  let report =
    List.fold_left
      (fun acc l -> if String.starts_with ~prefix:"{" l then l else acc)
      "" (String.split_on_char '\n' out)
  in
  match Obs.Json.parse report with
  | Ok json -> { index; traced; spawned; wall; json }
  | Error e -> failwith ("unreadable segment report: " ^ e)

(* A compile run spawns cold compiles in SAC, Gaspard2 pairs, at least
   [w.segments / 2] of them; in a traced run every other pair is traced.
   Other runs split the budget over [w.segments] segments, tracing every
   other one. *)
let run_segments w ~seed ~seconds ~trace =
  match w.kind with
  | Compile { pair_s } ->
      let pairs =
        max (w.segments / 2) (int_of_float (Float.round (seconds /. pair_s)))
      in
      List.concat
        (List.init pairs (fun pair ->
             let traced = trace && pair mod 2 = 0 in
             List.mapi
               (fun i route ->
                 let index = (2 * pair) + i in
                 spawn_segment w ~seed ~index ~budget:0. ~traced ~route)
               [ Sac; Gaspard ]))
  | Frames _ | Serve _ ->
      let budget = seconds /. float_of_int w.segments in
      List.init w.segments (fun index ->
          let traced = trace && index mod 2 = 0 in
          spawn_segment w ~seed ~index ~budget ~traced ~route:Sac)

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l

let ratio a b = if b > 0. then a /. b else 0.

let ops segs =
  List.concat_map
    (fun s ->
      List.map
        (function
          | route, Obs.Json.Num ms ->
              ((if route = "sac" then Sac else Gaspard), ms)
          | _ -> failwith "malformed op")
        (pairs "ops" s))
    segs

let route_ms route segs =
  List.filter_map
    (fun (r, ms) -> if r = route then Some ms else None)
    (ops segs)

let reported name s =
  Option.value ~default:0. (List.assoc_opt name (entries "counters" s))

let counter_total name segs = sum (reported name) segs

let counter_peak name segs =
  List.fold_left (fun a s -> Float.max a (reported name s)) 0. segs

let per_op segs = ratio (sum (num "busy_s") segs) (sum (num "busy_done") segs)

let metric name unit better value = ({ Spec.name; unit; better }, value)

(* Every end-to-end metric with its (lazy) value over a run's segments;
   with no segments this is the table check-spec compares against. *)
let end_to_end segs =
  let median l = lazy (Stats.median (Lazy.force l)) in
  let setups = lazy (List.map (fun s -> num "first" s -. s.spawned) segs) in
  [
    metric "setup_s" "s" Spec.Lower (median setups);
    metric "sac_ms" "ms" Spec.Lower (median (lazy (route_ms Sac segs)));
    metric "gaspard_ms" "ms" Spec.Lower (median (lazy (route_ms Gaspard segs)));
    metric "ops_per_s" "1/s" Spec.Higher (lazy (1. /. per_op segs));
    metric "peak_rss_mib" "MiB" Spec.Lower
      (lazy
        (List.fold_left (fun a s -> Float.max a (num "rss_kb" s)) 0. segs
        /. 1024.));
  ]

(* Layers whose self time the ledger reports, as a share of the traced
   segments' wall time (spawn to exit). *)
let layers =
  [
    "sac.parse";
    "sac.optimize";
    "sac_cuda.lower";
    "optimizer.search";
    "analysis.gate";
    "mde.validate";
    "mde.lower";
    "emit";
    "exec.sac";
    "exec.gaspard";
    "video.framegen";
    "video.reference";
    "video.check";
    "serve.session_create";
    "serve.submit";
    "load.wait";
  ]

let spans_of segs =
  List.concat_map
    (fun s -> Ledger.of_json ~seg:s.index (field "spans" s))
    (List.filter (fun s -> s.traced) segs)

(* Every per-layer metric with its (lazy) value over a traced run. *)
let per_layer segs =
  let traced = List.filter (fun s -> s.traced) segs
  and untraced = List.filter (fun s -> not s.traced) segs in
  let selfs = lazy (Ledger.self_times (spans_of segs)) in
  let self_where keep =
    sum
      (fun ((sp : Ledger.span), self) -> if keep sp.name then self else 0.)
      (Lazy.force selfs)
  in
  let wall = sum (fun s -> s.wall) traced in
  let c name = counter_total name traced in
  let share num den = lazy (ratio (c num) (sum c den)) in
  let phases = [ "phase.queue_wait"; "phase.batch_gather"; "phase.execute" ] in
  let peak name = lazy (counter_peak name traced) in
  let timed_s =
    lazy
      (sum
         (fun ((sp : Ledger.span), _) ->
           if sp.name = "timed" then sp.stop -. sp.start else 0.)
         (Lazy.force selfs))
  in
  List.map
    (fun l ->
      metric (l ^ ".self_frac") "fraction" Spec.Lower
        (lazy (ratio (self_where (String.equal l)) wall)))
    layers
  @ [
      metric "latency.tail_ms" "ms" Spec.Lower
        (lazy (snd (Stats.tail (List.map snd (ops segs)))));
      (* Time inside the timed region that only the structural spans
         ([timed], [op.*]) cover. *)
      metric "unattributed_frac" "fraction" Spec.Lower
        (lazy
          (ratio
             (self_where (fun n ->
                  n = "timed" || String.starts_with ~prefix:"op." n))
             (Lazy.force timed_s)));
      metric "trace_overhead_frac" "fraction" Spec.Lower
        (lazy (ratio (per_op traced -. per_op untraced) (per_op untraced)));
      metric "optimizer.candidates_per_search" "count" Spec.Lower
        (share "optimizer.candidates" [ "searches" ]);
      metric "optimizer.rejections_per_search" "count" Spec.Lower
        (share "optimizer.verify_rejections" [ "searches" ]);
      metric "optimizer.accept_ratio" "fraction" Spec.Higher
        (share "optimizer.rules_applied" [ "optimizer.candidates" ]);
      metric "gpu.cost_hit_ratio" "fraction" Spec.Higher
        (share "gpu.cost_hits" [ "gpu.cost_hits"; "gpu.cost_profiles" ]);
      metric "gpu.compile_hit_ratio" "fraction" Spec.Higher
        (share "gpu.compile_hits" [ "gpu.compile_hits"; "gpu.compiles" ]);
      metric "gpu.launches_per_frame" "count" Spec.Lower
        (share "launches" [ "frames" ]);
      metric "gpu.h2d_bytes_per_frame" "bytes" Spec.Lower
        (share "h2d_bytes" [ "frames" ]);
      metric "gpu.alloc_high_water_bytes" "bytes" Spec.Lower
        (peak "alloc_high_water");
      metric "fusion.buffers_reused_per_frame" "count" Spec.Higher
        (share "reused" [ "frames" ]);
      metric "gc.minor_mwords_per_frame" "Mwords" Spec.Lower
        (lazy (Lazy.force (share "minor_words" [ "frames" ]) /. 1e6));
      metric "gc.major_per_frame" "count" Spec.Lower
        (share "major" [ "frames" ]);
      metric "emit.cuda_bytes" "bytes" Spec.Lower (peak "emit.cuda_bytes");
      metric "emit.opencl_bytes" "bytes" Spec.Lower (peak "emit.opencl_bytes");
      metric "emit.metal_bytes" "bytes" Spec.Lower (peak "emit.metal_bytes");
      metric "emit.gaspard_cl_bytes" "bytes" Spec.Lower
        (peak "emit.gaspard_cl_bytes");
      metric "serve.queue_wait_frac" "fraction" Spec.Lower
        (share "phase.queue_wait" phases);
      metric "serve.batch_gather_frac" "fraction" Spec.Lower
        (share "phase.batch_gather" phases);
      metric "serve.execute_frac" "fraction" Spec.Lower
        (share "phase.execute" phases);
      metric "serve.batch_mean" "count" Spec.Higher
        (share "serve.batched_frames" [ "serve.batches" ]);
      metric "serve.rejected" "count" Spec.Lower (lazy (c "serve.rejected"));
      metric "pool.helped_tasks" "count" Spec.Higher
        (lazy (c "pool.helped_tasks"));
      metric "pool.worker_tasks" "count" Spec.Higher
        (lazy (c "pool.worker_tasks"));
      metric "pool.peak_parallelism" "count" Spec.Higher
        (peak "peak_parallelism");
      metric "load.late_frac" "fraction" Spec.Lower
        (share "late" [ "requests" ]);
    ]

let table metrics = List.map fst (metrics [])

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_ledger spans =
  Printf.printf "\nledger (traced segments)\n  %-24s %6s %10s %10s %10s\n"
    "span" "calls" "total_s" "self_s" "p50_ms";
  List.iter
    (fun (row : Ledger.row) ->
      Printf.printf "  %-24s %6d %10.4f %10.4f %10.3f\n" row.name row.calls
        row.total_s row.self_s row.p50_ms)
    (Ledger.rows spans)

let write_trace w ~seed spans =
  if Sys.file_exists "perfbench" && Sys.is_directory "perfbench" then begin
    let dir = Filename.concat "perfbench" "out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path =
      Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" w.name seed)
    in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Ledger.chrome_json spans));
    Printf.printf "  trace written to %s (open it in ui.perfetto.dev)\n" path
  end

let run w ~seed ~seconds ~trace =
  let segs = run_segments w ~seed ~seconds ~trace in
  let total name = int_of_float (sum (num name) segs) in
  let digests =
    List.concat_map
      (fun s ->
        List.map
          (function
            | route, Obs.Json.Str d -> (route, d) | _ -> failwith "digest")
          (pairs "digests" s))
      segs
  in
  let plans_agree =
    List.for_all
      (fun (route, d) ->
        List.for_all (fun (r, d') -> r <> route || d = d') digests)
      digests
  in
  let correct = total "wrong" = 0 && plans_agree in
  Printf.printf "workload %s, seed %d: %d segments, %d checked, %d failed%s\n"
    w.name seed (List.length segs) (total "attempted") (total "failed")
    (if plans_agree then "" else ", compiled plans differ between segments");
  List.iter
    (fun route ->
      match route_ms route segs with
      | ([] | [ _ ]) as l ->
          Printf.printf "  %s: %d operation(s)\n" (route_name route)
            (List.length l)
      | l ->
          Printf.printf "  %s: %d operations, median %.3f ms, IQR/median %.3f\n"
            (route_name route) (List.length l) (Stats.median l)
            (Stats.iqr_frac l))
    [ Sac; Gaspard ];
  let all = List.map snd (ops segs) in
  let p, tail = Stats.tail all in
  Printf.printf "  percentile %d of all %d operations: %.3f ms\n" p
    (List.length all) tail;
  List.iter
    (fun (route, us) ->
      Printf.printf "  modelled device time, %s: %.3f us/frame\n" route us)
    (List.sort_uniq compare (List.concat_map (entries "modelled_us") segs));
  (match w.kind with
  | Serve _ ->
      Printf.printf
        "  serving: %.0f open-loop requests, %.0f slower than %.0f ms from \
         due or lost, %.0f submitted late\n"
        (counter_total "requests" segs)
        (counter_total "slo_misses" segs)
        slo_ms
        (counter_total "late" segs)
  | _ -> ());
  let metrics = if trace then per_layer segs else end_to_end segs in
  if trace then begin
    let spans = spans_of segs in
    print_ledger spans;
    write_trace w ~seed spans
  end;
  let values = List.map (fun (m, v) -> (m, Lazy.force v)) metrics in
  print_endline "\nmetrics";
  List.iter
    (fun ((m : Spec.metric), v) ->
      Printf.printf "  %-36s %14.6g %s\n" m.name v m.unit)
    values;
  if List.exists (fun (_, v) -> not (Float.is_finite v)) values then
    failwith "a metric could not be computed";
  print_endline
    (Obs.Json.render
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Num (float_of_int (total "attempted")));
            ("failed", Num (float_of_int (total "failed")));
            ( "metrics",
              Obj
                (List.map
                   (fun ((m : Spec.metric), v) ->
                     ( m.name,
                       Obs.Json.Obj [ ("value", Num v); ("unit", Str m.unit) ]
                     ))
                   values) );
          ]))

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workload_names = String.concat ", " (List.map (fun w -> w.name) workloads)

let usage () =
  Printf.eprintf
    "usage: perf.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       perf.exe check-spec BENCHMARK.json\n\
     workloads: %s\n"
    workload_names;
  exit 2

let bad fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "perf: %s\n" m;
      exit 2)
    fmt

let check_spec path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error m ->
      prerr_endline ("perf: " ^ m);
      exit 1
  in
  match Obs.Json.parse text with
  | Error e ->
      Printf.eprintf "perf: %s is not JSON: %s\n" path e;
      exit 1
  | Ok json -> (
      match
        Spec.check
          ~workloads:(List.map (fun w -> w.name) workloads)
          ~end_to_end:(table end_to_end) ~per_layer:(table per_layer) json
      with
      | [] -> Printf.printf "%s agrees with the driver\n" path
      | errors ->
          List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) errors;
          exit 1)

let main args =
  let workload = ref None
  and seed = ref 1
  and seconds = ref 15.
  and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match find_workload v with
        | Some w -> workload := Some w
        | None -> bad "unknown workload %S (known: %s)" v workload_names);
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> seed := n
        | _ -> bad "--seed expects a positive integer, got %S" v);
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. && s <= 120. -> seconds := s
        | _ -> bad "--seconds expects a number in (0, 120], got %S" v);
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> bad "--trace expects 0 or 1, got %S" v);
        go rest
    | arg :: _ -> bad "unexpected argument %S" arg
  in
  go args;
  match !workload with
  | None -> usage ()
  | Some w -> run w ~seed:!seed ~seconds:!seconds ~trace:!trace

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "check-spec"; path ] -> check_spec path
  | [ "segment"; name; seed; index; budget; traced; route ] -> (
      match find_workload name with
      | None -> exit 2
      | Some w ->
          segment_main w ~seed:(int_of_string seed)
            ~index:(int_of_string index) ~budget:(float_of_string budget)
            ~traced:(traced = "1")
            ~route:(if route = "sac" then Sac else Gaspard))
  | [] | [ ("-h" | "--help") ] -> usage ()
  | args -> main args
