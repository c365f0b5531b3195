(* The benchmark harness.

   Three sections:

   1. {b Reproduction} — regenerates every table and figure of the
      paper's evaluation at full scale (1080x1920, 300 frames) and
      prints them in the paper's layout, next to the published numbers.
   2. {b Ablations} — the design-choice studies DESIGN.md calls out
      (WLF on/off, Figure 8 generator splitting on/off, transfer
      batching, generic vs non-generic), reported in simulated GTX480
      time.
   3. {b Microbenchmarks} — Bechamel [Test.make]s for the tables and
      figures (at a reduced scale so the statistics converge quickly)
      plus the main compiler components, measuring the
      *implementation's* wall clock.

   Flags:
     --smoke          reduced scale + tiny Bechamel quota without GC
                      stabilisation; fast enough to run under
                      `dune runtest`.
     --json [PATH]    also write the per-section wall-clock times as JSON
                      (default: BENCH_<yyyy-mm-dd>.json), with the kernel
                      cache statistics and pool counters embedded.
     --domains N      resize the shared domain pool (1 = sequential).
     --opt off|fuse|auto
                      plan optimisation mode for both GPU pipelines
                      (default off; the fusion and autotune ablations
                      always measure every setting explicitly, and the
                      serving section always serves auto-tuned plans).
     --trace [PATH]   write a Chrome trace-event JSON file (default:
                      bench_trace.json) with modelled-device tracks and
                      host wall-clock spans.
     --metrics [PATH] dump the metrics registry (default:
                      bench_metrics.json; .json selects JSON). *)

open Bechamel

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* 1. Reproduction at paper scale                                      *)
(* ------------------------------------------------------------------ *)

let reproduction ~scale () =
  let s = scale in
  section
    (Printf.sprintf "Reproduction (%dx%d, %d frames, simulated GTX480)"
       s.Study.Scale.rows s.Study.Scale.cols s.Study.Scale.frames);
  print_newline ();
  print_string (Study.Report.fig9 (Study.Experiments.fig9 ~scale ()));
  print_newline ();
  print_string
    (Study.Report.side_by_side ~title:"Table I (paper vs simulated)"
       ~paper:Study.Report.paper_table1_reference
       ~ours:(Study.Experiments.table1 ~scale ()));
  print_newline ();
  print_string
    (Study.Report.side_by_side ~title:"Table II (paper vs simulated)"
       ~paper:Study.Report.paper_table2_reference
       ~ours:(Study.Experiments.table2 ~scale ()));
  print_newline ();
  print_string (Study.Report.fig12 (Study.Experiments.fig12 ~scale ()));
  print_newline ();
  print_string (Study.Report.claims (Study.Experiments.claims ~scale ()))

(* ------------------------------------------------------------------ *)
(* 2. Ablations (simulated time)                                       *)
(* ------------------------------------------------------------------ *)

let dummy_plane (scale : Study.Scale.t) =
  Ndarray.Tensor.init
    [| scale.Study.Scale.rows; scale.Study.Scale.cols |]
    (fun idx -> (idx.(0) + (2 * idx.(1))) mod 251)

let simulate_plan ~scale ~plane plan =
  let ctx = Gpu.Context.create ~mode:Gpu.Context.Timing_only () in
  let outcome =
    Sac_cuda.Exec.run ~host_mode:`Estimate ctx plan ~args:[ ("frame", plane) ]
  in
  let dev = Gpu.Context.elapsed_us ctx in
  ( (dev +. outcome.Sac_cuda.Exec.host_us)
    *. float_of_int (Study.Scale.planes * scale.Study.Scale.frames)
    /. 1e6,
    outcome.Sac_cuda.Exec.kernel_launches )

let ablation_wlf ~scale ~plane () =
  section "Ablation: WITH-loop folding (non-generic H+V pipeline)";
  let src =
    Sac.Programs.downscaler ~generic:false ~rows:scale.Study.Scale.rows
      ~cols:scale.Study.Scale.cols
  in
  let fused, _ = Sac_cuda.Compile.plan_of_source src ~entry:"main" in
  let unfused =
    (* Inline and simplify only: the three with-loops per filter stay
       separate, materialising both intermediate arrays on the device. *)
    Sac_cuda.Compile.plan
      (Sac.Dce.fundef
         (Sac.Simplify.fundef
            (Sac.Inline.program (Sac.Parser.program src) ~entry:"main")))
  in
  let t_fused, k_fused = simulate_plan ~scale ~plane fused in
  let t_unfused, k_unfused = simulate_plan ~scale ~plane unfused in
  Printf.printf "  with WLF:    %2d kernel launches/plane, %6.2f s simulated\n"
    k_fused t_fused;
  Printf.printf "  without WLF: %2d kernel launches/plane, %6.2f s simulated\n"
    k_unfused t_unfused;
  Printf.printf "  folding saves %.0f%% of device time\n"
    (100.0 *. (1.0 -. (t_fused /. t_unfused)))

let ablation_split ~scale ~plane () =
  section "Ablation: Figure 8 generator splitting (non-generic H filter)";
  let src =
    Sac.Programs.horizontal ~generic:false ~rows:scale.Study.Scale.rows
      ~cols:scale.Study.Scale.cols
  in
  List.iter
    (fun (label, split_generators) ->
      let plan, _ =
        Sac_cuda.Compile.plan_of_source ~split_generators src ~entry:"main"
      in
      let t, k = simulate_plan ~scale ~plane plan in
      Printf.printf "  %-22s %2d kernels, %6.2f s simulated\n" label k t)
    [ ("split (as Figure 8):", true); ("unsplit:", false) ]

let ablation_transfers ~scale () =
  section "Ablation: transfer batching (300 frames, host->device)";
  let d = Gpu.Device.gtx480 in
  let frames = float_of_int scale.Study.Scale.frames in
  let plane_bytes = scale.Study.Scale.rows * scale.Study.Scale.cols * 4 in
  let per_plane =
    3. *. frames
    *. Gpu.Perf_model.memcpy_time_us d ~bytes:plane_bytes ~dir:`H2d
  in
  let batched =
    frames *. Gpu.Perf_model.memcpy_time_us d ~bytes:(3 * plane_bytes) ~dir:`H2d
  in
  Printf.printf "  per-plane copies (as both papers' backends): %6.2f s\n"
    (per_plane /. 1e6);
  Printf.printf "  one batched copy per frame:                  %6.2f s\n"
    (batched /. 1e6);
  Printf.printf "  batching would save %.1f%% of upload time\n"
    (100.0 *. (1.0 -. (batched /. per_plane)))

(* Results kept for the --json report. *)
let overlap_summaries : (string * Gpu.Overlap.summary) list ref = ref []
let fusion_rows : Study.Experiments.fusion_row list ref = ref []

let ablation_overlap ~scale () =
  section "Ablation: stream overlap (what both backends leave on the table)";
  (* One frame's events per pipeline, pipelined over the run length
     with double-buffered streams. *)
  let summaries = Study.Experiments.overlap ~scale () in
  overlap_summaries := summaries;
  print_string (Study.Report.overlap summaries)

let ablation_fusion ~scale () =
  section "Ablation: plan-level kernel fusion + buffer liveness (--opt fuse)";
  let rows = Study.Experiments.fusion ~scale () in
  fusion_rows := rows;
  print_string (Study.Report.fusion rows)

let perf_reports : Study.Experiments.perf_report list ref = ref []

let ablation_perf_lint ~scale () =
  section "Static memory behaviour (proven access class, coalescing lints)";
  let reports = Study.Experiments.perf_lint ~scale () in
  perf_reports := reports;
  print_string (Study.Report.perf_lint reports)

let autotune_rows : Study.Experiments.autotune_row list ref = ref []

(* Runs before the serving section so its tuned plans are already in
   the process-wide cache when auto-mode sessions compile. *)
let ablation_autotune ~smoke () =
  section "Ablation: plan autotuning (--opt off vs fuse vs auto)";
  let shapes =
    if smoke then [ (72, 64); (1080, 1920) ]
    else [ (72, 64); (288, 352); (1080, 1920) ]
  in
  let rows = Study.Experiments.autotune ~shapes () in
  autotune_rows := rows;
  print_string (Study.Report.autotune rows)

let ablation_generic ~scale () =
  section "Ablation: abstraction tax (generic vs non-generic, simulated)";
  List.iter
    (fun filter ->
      let name =
        match filter with Study.Sac_runs.H -> "horizontal" | _ -> "vertical"
      in
      let g = Study.Sac_runs.time_us Study.Sac_runs.Cuda_generic filter scale in
      let n =
        Study.Sac_runs.time_us Study.Sac_runs.Cuda_nongeneric filter scale
      in
      Printf.printf "  %-10s generic %6.2f s, non-generic %6.2f s (%.1fx)\n"
        name (g /. 1e6) (n /. 1e6) (g /. n))
    [ Study.Sac_runs.H; Study.Sac_runs.V ]

(* Multi-device sharding: frames scheduler-placed across 1/2/4
   simulated devices at CIF and at the run's main scale, plus a
   serving-saturation sweep across the same device counts.  Results
   are kept for the --json report's "devices" block. *)
let devices_rows : Study.Experiments.devices_row list ref = ref []

type device_serving_row = {
  dsv_devices : int;
  dsv_achieved_rps : float;
  dsv_migrations : int;
}

let device_serving_rows : device_serving_row list ref = ref []

let ablation_devices ~scale () =
  section "Ablation: multi-device sharding (1/2/4 devices, peer-link gather)";
  let shapes =
    let cif = { Study.Scale.rows = 288; cols = 352; frames = 24 } in
    if
      scale.Study.Scale.rows = cif.Study.Scale.rows
      && scale.Study.Scale.cols = cif.Study.Scale.cols
    then [ cif ]
    else [ cif; { scale with Study.Scale.frames = 24 } ]
  in
  devices_rows :=
    List.concat_map (fun s -> Study.Experiments.devices ~scale:s ()) shapes;
  print_string (Study.Report.devices !devices_rows)

let serving_devices ~smoke () =
  section "Serving: saturation across device counts (closed loop)";
  let fmt =
    if smoke then { Video.Format.name = "smoke"; rows = 72; cols = 64 }
    else Video.Format.cif
  in
  let streams = 4 in
  let frames_per_stream = if smoke then 6 else 16 in
  device_serving_rows :=
    List.map
      (fun n ->
        Serve.Session.set_devices n;
        let migrations_before = Serve.Session.migrations () in
        let sessions =
          List.init streams (fun i ->
              Serve.Session.create ~opt:Optimizer.Mode.Auto ~id:i
                ~pipeline:Serve.Session.Sac fmt)
        in
        let r =
          Serve.Loadgen.closed_loop
            ~label:(Printf.sprintf "sac/dev%d" n)
            ~trace_name:(Printf.sprintf "serving (sac, %d device(s))" n)
            ~engine:
              {
                Serve.Engine.workers = 2;
                queue_capacity = 16;
                policy = Serve.Queue.Block;
                batch = { Serve.Batcher.max_batch = 4; window_us = 200. };
              }
            ~sessions ~frames_per_stream ()
        in
        Format.printf "  %a@." Serve.Loadgen.pp_report r;
        {
          dsv_devices = n;
          dsv_achieved_rps = r.Serve.Loadgen.achieved_rps;
          dsv_migrations = Serve.Session.migrations () - migrations_before;
        })
      [ 1; 2; 4 ];
  Serve.Session.set_devices 1;
  List.iter
    (fun r ->
      Printf.printf "  %d device(s): %.1f rps achieved, %d migration(s)\n"
        r.dsv_devices r.dsv_achieved_rps r.dsv_migrations)
    !device_serving_rows

(* ------------------------------------------------------------------ *)
(* 2b. Serving: streaming engine under load (wall clock)               *)
(* ------------------------------------------------------------------ *)

(* Each pipeline is first driven closed-loop (one outstanding request
   per stream) to estimate its saturation rate and unqueued latency
   baseline, then offered 2x that rate open-loop under the two
   load-shedding policies.  The acceptance bar: shedding keeps p99
   bounded even at 2x saturation.  "Bounded" is checked against the
   structural worst case of a bounded queue -- a request admitted into
   a full queue of [capacity] waits at most [capacity + batch] service
   times -- with a 4x allowance for scheduling noise. *)

type serving_row = {
  sv_pipeline : string;
  sv_policy : string;  (** "closed", "reject" or "drop" *)
  sv_offered_rps : float;
  sv_achieved_rps : float;
  sv_completed : int;
  sv_rejected : int;
  sv_dropped : int;
  sv_timed_out : int;
  sv_failed : int;
  sv_p50_ms : float;
  sv_p95_ms : float;
  sv_p99_ms : float;
  sv_p999_ms : float;
  sv_p99_bounded : bool;
}

let serving_rows : serving_row list ref = ref []

let slo_rows : Obs.Slo.t list ref = ref []

let serving_row ~pipeline ~policy ~bound_us (r : Serve.Loadgen.report) =
  let c = r.Serve.Loadgen.counts in
  let l = r.Serve.Loadgen.latency in
  {
    sv_pipeline = pipeline;
    sv_policy = policy;
    sv_offered_rps = r.Serve.Loadgen.offered_rps;
    sv_achieved_rps = r.Serve.Loadgen.achieved_rps;
    sv_completed = c.Serve.Loadgen.completed;
    sv_rejected = c.Serve.Loadgen.rejected;
    sv_dropped = c.Serve.Loadgen.dropped;
    sv_timed_out = c.Serve.Loadgen.timed_out;
    sv_failed = c.Serve.Loadgen.failed;
    sv_p50_ms = l.Serve.Stats.p50_us /. 1000.;
    sv_p95_ms = l.Serve.Stats.p95_us /. 1000.;
    sv_p99_ms = l.Serve.Stats.p99_us /. 1000.;
    sv_p999_ms = l.Serve.Stats.p999_us /. 1000.;
    sv_p99_bounded = l.Serve.Stats.p99_us <= bound_us;
  }

let serving ~smoke () =
  section "Serving: streaming engine under load (wall clock)";
  let fmt =
    if smoke then { Video.Format.name = "smoke"; rows = 72; cols = 64 }
    else Video.Format.cif
  in
  let streams = 2 in
  let workers = 2 in
  let capacity = 16 in
  let batch = { Serve.Batcher.max_batch = 4; window_us = 200. } in
  (* Same guard `served` applies to its CLI flags: a zero here would
     silently serve nothing. *)
  if workers < 1 || capacity < 1 || batch.Serve.Batcher.max_batch < 1 then
    invalid_arg "bench: serving workers, capacity and batch must be positive";
  let engine policy =
    { Serve.Engine.workers; queue_capacity = capacity; policy; batch }
  in
  let frames_per_stream = if smoke then 8 else 40 in
  let duration = if smoke then 0.35 else 1.5 in
  List.iter
    (fun (name, pipeline) ->
      let sessions =
        List.init streams (fun i ->
            Serve.Session.create ~opt:Optimizer.Mode.Auto ~id:i ~pipeline
              fmt)
      in
      let closed =
        Serve.Loadgen.closed_loop ~label:(name ^ "/closed")
          ~trace_name:(Printf.sprintf "serving (%s, closed)" name)
          ~engine:(engine Serve.Queue.Block) ~sessions ~frames_per_stream ()
      in
      let sat = Float.max 1.0 closed.Serve.Loadgen.achieved_rps in
      (* Worst admitted wait: the whole queue plus one batch ahead of
         you, each at the closed-loop mean service time. *)
      let service_us =
        closed.Serve.Loadgen.latency.Serve.Stats.mean_us
        /. float_of_int (max 1 streams)
      in
      let bound_us =
        4.0
        *. float_of_int (capacity + batch.Serve.Batcher.max_batch)
        *. Float.max service_us 1000.
      in
      serving_rows :=
        !serving_rows
        @ [ serving_row ~pipeline:name ~policy:"closed" ~bound_us closed ];
      Format.printf "  %a@." Serve.Loadgen.pp_report closed;
      (* The SLO for the 2x-saturation runs reuses the bounded-p99
         acceptance threshold as its objective: admitted requests under
         a shedding policy are supposed to stay under it. *)
      let slo = Obs.Slo.create ~name ~objective_us:bound_us () in
      slo_rows := !slo_rows @ [ slo ];
      List.iter
        (fun (pname, policy) ->
          let r =
            Serve.Loadgen.open_loop ~slo
              ~label:(Printf.sprintf "%s/2x-sat/%s" name pname)
              ~trace_name:(Printf.sprintf "serving (%s, %s)" name pname)
              ~engine:(engine policy) ~sessions ~rate_hz:(2. *. sat)
              ~duration_s:duration ()
          in
          serving_rows :=
            !serving_rows @ [ serving_row ~pipeline:name ~policy:pname ~bound_us r ];
          Format.printf "  %a@." Serve.Loadgen.pp_report r)
        [ ("reject", Serve.Queue.Reject); ("drop", Serve.Queue.Drop_oldest) ];
      print_endline ("  " ^ Obs.Slo.report slo))
    [ ("sac", Serve.Session.Sac); ("gaspard", Serve.Session.Mde) ]

(* ------------------------------------------------------------------ *)
(* 3. Bechamel microbenchmarks                                         *)
(* ------------------------------------------------------------------ *)

let small = { Study.Scale.rows = 72; cols = 64; frames = 2 }

let tiny_frame =
  lazy
    (Ndarray.Tensor.init [| 72; 64 |] (fun idx ->
         (idx.(0) + (2 * idx.(1))) mod 251))

let nongeneric_src =
  lazy (Sac.Programs.horizontal ~generic:false ~rows:72 ~cols:64)

let compiled_plan =
  lazy
    (fst
       (Sac_cuda.Compile.plan_of_source (Lazy.force nongeneric_src)
          ~entry:"main"))

let tests =
  [
    (* Paper artefacts at reduced scale.  Figure 9 has no row: its runs
       are memoised, so a row would time a table lookup. *)
    Test.make ~name:"table1/gaspard-profile"
      (Staged.stage (fun () -> Study.Gaspard_runs.profile small));
    Test.make ~name:"table2/sac-profile"
      (Staged.stage (fun () ->
           Study.Sac_runs.full_pipeline_profile ~generic:false small));
    Test.make ~name:"fig12/comparison"
      (Staged.stage (fun () -> Study.Experiments.fig12 ~scale:small ()));
    Test.make ~name:"fig8/folded-loop"
      (Staged.stage (fun () -> Study.Experiments.fig8 ~scale:small ()));
    (* Compiler components. *)
    Test.make ~name:"compiler/parse"
      (Staged.stage (fun () -> Sac.Parser.program (Lazy.force nongeneric_src)));
    Test.make ~name:"compiler/optimize"
      (Staged.stage (fun () ->
           Sac.Pipeline.optimize_source (Lazy.force nongeneric_src)
             ~entry:"main"));
    Test.make ~name:"compiler/backend"
      (Staged.stage (fun () ->
           Sac_cuda.Compile.plan_of_source (Lazy.force nongeneric_src)
             ~entry:"main"));
    Test.make ~name:"compiler/emit-cuda"
      (Staged.stage (fun () ->
           Sac_cuda.Emit_cu.source ~name:"bench" (Lazy.force compiled_plan)));
    Test.make ~name:"runtime/execute-plan-72x64"
      (Staged.stage (fun () ->
           Sac_cuda.Exec.run (Gpu.Context.create ()) (Lazy.force compiled_plan)
             ~args:[ ("frame", Lazy.force tiny_frame) ]));
    Test.make ~name:"mde/transform-chain"
      (Staged.stage (fun () ->
           Mde.Chain.transform_exn
             (Mde.Chain.downscaler_model ~rows:72 ~cols:64)));
    Test.make ~name:"substrate/tiler-gather-all"
      (Staged.stage (fun () ->
           let spec, _ =
             Video.Downscaler.input_tilers
               { Video.Format.name = "b"; rows = 72; cols = 64 }
           in
           Tiler.gather_all (Lazy.force tiny_frame) spec));
    Test.make ~name:"substrate/reference-downscaler"
      (Staged.stage (fun () -> Video.Downscaler.plane (Lazy.force tiny_frame)));
  ]

let run_benchmarks ~smoke () =
  section "Microbenchmarks (wall clock of this implementation)";
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:10 ~quota:(Time.second 0.01) ~kde:None
        ~stabilize:false ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let analysis =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
  in
  Printf.printf "%-42s %14s %10s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all analysis instance raw in
      List.iter
        (fun name ->
          match Hashtbl.find_opt results name with
          | None -> ()
          | Some ols ->
              let time_ns =
                match Analyze.OLS.estimates ols with
                | Some (t :: _) -> t
                | _ -> nan
              in
              let r2 =
                match Analyze.OLS.r_square ols with
                | Some r -> Printf.sprintf "%.3f" r
                | None -> "-"
              in
              let pretty =
                if time_ns >= 1e9 then
                  Printf.sprintf "%8.2f  s" (time_ns /. 1e9)
                else if time_ns >= 1e6 then
                  Printf.sprintf "%8.2f ms" (time_ns /. 1e6)
                else if time_ns >= 1e3 then
                  Printf.sprintf "%8.2f us" (time_ns /. 1e3)
                else Printf.sprintf "%8.0f ns" time_ns
              in
              Printf.printf "%-42s %14s %10s\n%!" name pretty r2)
        (Test.names test))
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type options = {
  smoke : bool;
  json : string option;  (** output path when [--json] was given *)
  domains : int;  (** 0 = machine default *)
  opt : Optimizer.Mode.t;  (** plan optimisation mode for both pipelines *)
  trace : string option;  (** Chrome trace output when [--trace] was given *)
  metrics : string option;  (** metrics dump when [--metrics] was given *)
}

let today () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let parse_options () =
  let opts =
    ref
      {
        smoke = false;
        json = None;
        domains = 0;
        opt = Optimizer.Mode.Off;
        trace = None;
        metrics = None;
      }
  in
  let args = Array.to_list Sys.argv in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest ->
        opts := { !opts with smoke = true };
        go rest
    | "--json" :: path :: rest when String.length path > 0 && path.[0] <> '-' ->
        opts := { !opts with json = Some path };
        go rest
    | "--json" :: rest ->
        opts := { !opts with json = Some (Printf.sprintf "BENCH_%s.json" (today ())) };
        go rest
    | "--trace" :: path :: rest when String.length path > 0 && path.[0] <> '-' ->
        opts := { !opts with trace = Some path };
        go rest
    | "--trace" :: rest ->
        opts := { !opts with trace = Some "bench_trace.json" };
        go rest
    | "--metrics" :: path :: rest
      when String.length path > 0 && path.[0] <> '-' ->
        opts := { !opts with metrics = Some path };
        go rest
    | "--metrics" :: rest ->
        opts := { !opts with metrics = Some "bench_metrics.json" };
        go rest
    | "--opt" :: v :: rest when Optimizer.Mode.of_string v <> None ->
        opts :=
          { !opts with opt = Option.get (Optimizer.Mode.of_string v) };
        go rest
    | "--opt" :: v :: _ ->
        Printf.eprintf "bench: --opt expects off, fuse or auto, got %s\n" v;
        exit 2
    | "--domains" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n -> opts := { !opts with domains = n }; go rest
        | None ->
            Printf.eprintf "bench: --domains expects an integer, got %s\n" n;
            exit 2)
    | arg :: rest ->
        if arg <> Sys.argv.(0) then
          Printf.eprintf "bench: ignoring unknown argument %s\n" arg;
        go rest
  in
  go args;
  !opts

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path ~opts ~scale ~timings =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"date\": \"%s\",\n" (today ());
  p "  \"smoke\": %b,\n" opts.smoke;
  p "  \"domains\": %d,\n"
    (if opts.domains > 0 then opts.domains else Gpu.Pool.default_domains ());
  p "  \"opt\": \"%s\",\n" (Optimizer.Mode.to_string opts.opt);
  p "  \"scale\": { \"rows\": %d, \"cols\": %d, \"frames\": %d },\n"
    scale.Study.Scale.rows scale.Study.Scale.cols scale.Study.Scale.frames;
  p "  \"sections\": [\n";
  List.iteri
    (fun i (name, seconds) ->
      p "    { \"name\": \"%s\", \"seconds\": %.3f }%s\n" (json_escape name)
        seconds
        (if i = List.length timings - 1 then "" else ","))
    timings;
  p "  ],\n";
  let m name = Option.value ~default:0 (Obs.Metrics.find name) in
  p
    "  \"cache_stats\": { \"compiles\": %d, \"compile_hits\": %d, \
     \"cost_profiles\": %d, \"cost_hits\": %d },\n"
    (m "gpu.compiles") (m "gpu.compile_hits") (m "gpu.cost_profiles")
    (m "gpu.cost_hits");
  p
    "  \"gpu\": { \"launches\": %d, \"h2d_copies\": %d, \"h2d_bytes\": %d, \
     \"d2h_copies\": %d, \"d2h_bytes\": %d, \"alloc_high_water_bytes\": %d, \
     \"peak_bytes\": %d, \"buffers_reused\": %d },\n"
    (m "gpu.launches") (m "gpu.h2d_copies") (m "gpu.h2d_bytes")
    (m "gpu.d2h_copies") (m "gpu.d2h_bytes") (m "gpu.alloc_high_water_bytes")
    (m "gpu.alloc_high_water_bytes")
    (m "fusion.buffers_reused");
  p
    "  \"pool\": { \"size\": %d, \"tasks\": %d, \"worker_tasks\": %d, \
     \"helped_tasks\": %d, \"batches\": %d, \"queue_high_water\": %d, \
     \"peak_parallelism\": %d },\n"
    (Gpu.Pool.size (Gpu.Pool.get ()))
    (m "pool.tasks") (m "pool.worker_tasks") (m "pool.helped_tasks")
    (m "pool.batches")
    (m "pool.queue_high_water")
    (m "pool.peak_parallelism");
  p
    "  \"fusion\": { \"kernels_eliminated\": %d, \"launches_saved\": %d, \
     \"buffers_eliminated\": %d, \"bytes_saved\": %d, \"buffers_reused\": \
     %d },\n"
    (m "fusion.kernels_eliminated")
    (m "fusion.launches_saved")
    (m "fusion.buffers_eliminated")
    (m "fusion.bytes_saved") (m "fusion.buffers_reused");
  p
    "  \"optimizer\": { \"candidates\": %d, \"rules_applied\": %d, \
     \"verify_rejections\": %d, \"plan_cache_hits\": %d, \
     \"plan_cache_misses\": %d, \"plan_cache_size\": %d, \
     \"replay_divergences\": %d },\n"
    (m "optimizer.candidates")
    (m "optimizer.rules_applied")
    (m "optimizer.verify_rejections")
    (m "optimizer.plan_cache_hits")
    (m "optimizer.plan_cache_misses")
    (Optimizer.Cache.size ())
    (m "optimizer.replay_divergences");
  p "  \"autotune_ablation\": [\n";
  let nat = List.length !autotune_rows in
  List.iteri
    (fun i (r : Study.Experiments.autotune_row) ->
      p
        "    { \"pipeline\": \"%s\", \"rows\": %d, \"cols\": %d, \
         \"off_us\": %.1f, \"fuse_us\": %.1f, \"auto_us\": %.1f, \
         \"rules\": [%s], \"bit_checked\": %b, \"bit_identical\": %b }%s\n"
        (json_escape r.Study.Experiments.at_pipeline)
        r.Study.Experiments.at_rows r.Study.Experiments.at_cols
        r.Study.Experiments.at_off_us r.Study.Experiments.at_fuse_us
        r.Study.Experiments.at_auto_us
        (String.concat ", "
           (List.map
              (fun rule -> Printf.sprintf "\"%s\"" (json_escape rule))
              r.Study.Experiments.at_rules))
        r.Study.Experiments.at_bit_checked
        r.Study.Experiments.at_bit_identical
        (if i = nat - 1 then "" else ","))
    !autotune_rows;
  p "  ],\n";
  p "  \"fusion_ablation\": [\n";
  let nrows = List.length !fusion_rows in
  List.iteri
    (fun i (r : Study.Experiments.fusion_row) ->
      p
        "    { \"pipeline\": \"%s\", \"fused\": %b, \"kernels\": %d, \
         \"launches\": %d, \"intermediates\": %d, \"peak_bytes\": %d, \
         \"modelled_us\": %.1f, \"bit_identical\": %b }%s\n"
        (json_escape r.Study.Experiments.pipeline)
        r.Study.Experiments.fused r.Study.Experiments.kernels
        r.Study.Experiments.launches r.Study.Experiments.intermediates
        r.Study.Experiments.peak_bytes r.Study.Experiments.modelled_us
        r.Study.Experiments.bit_identical
        (if i = nrows - 1 then "" else ","))
    !fusion_rows;
  p "  ],\n";
  p "  \"overlap\": {\n";
  let nsums = List.length !overlap_summaries in
  List.iteri
    (fun i (name, (s : Gpu.Overlap.summary)) ->
      p
        "    \"%s\": { \"serial_s\": %.3f, \"pipelined_s\": %.3f, \
         \"bottleneck_share\": %.3f, \"saving_pct\": %.1f }%s\n"
        (json_escape name) s.Gpu.Overlap.serial_s s.Gpu.Overlap.pipelined_s
        s.Gpu.Overlap.bottleneck_share s.Gpu.Overlap.saving_pct
        (if i = nsums - 1 then "" else ","))
    !overlap_summaries;
  p "  },\n";
  p "  \"serving\": [\n";
  let nserv = List.length !serving_rows in
  List.iteri
    (fun i (r : serving_row) ->
      p
        "    { \"pipeline\": \"%s\", \"policy\": \"%s\", \"offered_rps\": \
         %.1f, \"achieved_rps\": %.1f, \"completed\": %d, \"rejected\": %d, \
         \"dropped\": %d, \"timed_out\": %d, \"failed\": %d, \"p50_ms\": \
         %.2f, \"p95_ms\": %.2f, \"p99_ms\": %.2f, \"p999_ms\": %.2f, \
         \"p99_bounded\": %b }%s\n"
        (json_escape r.sv_pipeline) (json_escape r.sv_policy) r.sv_offered_rps
        r.sv_achieved_rps r.sv_completed r.sv_rejected r.sv_dropped
        r.sv_timed_out r.sv_failed r.sv_p50_ms r.sv_p95_ms r.sv_p99_ms
        r.sv_p999_ms r.sv_p99_bounded
        (if i = nserv - 1 then "" else ","))
    !serving_rows;
  p "  ],\n";
  p "  \"slo\": [\n";
  let nslo = List.length !slo_rows in
  List.iteri
    (fun i s ->
      p
        "    { \"name\": \"%s\", \"objective_ms\": %.2f, \"budget\": %.4f, \
         \"total\": %d, \"breaches\": %d, \"breach_rate\": %.4f, \"burn\": \
         %.2f }%s\n"
        (json_escape (Obs.Slo.name s))
        (Obs.Slo.objective_us s /. 1000.)
        (Obs.Slo.budget s) (Obs.Slo.total s) (Obs.Slo.breaches s)
        (Obs.Slo.breach_rate s) (Obs.Slo.burn s)
        (if i = nslo - 1 then "" else ","))
    !slo_rows;
  p "  ],\n";
  (* Per-phase latency-attribution histograms the engines fed while
     serving ran; the buckets mirror the metrics registry. *)
  let phase_names = [ "queue_wait"; "batch_gather"; "execute"; "retry" ] in
  let phase_snaps =
    List.filter_map
      (fun ph ->
        Option.map
          (fun snap -> (ph, snap))
          (Obs.Metrics.histogram_snapshot
             (Printf.sprintf "serve.phase.%s_us" ph)))
      phase_names
  in
  p "  \"serve_phases\": {\n";
  let nph = List.length phase_snaps in
  List.iteri
    (fun i (ph, (count, sum, buckets)) ->
      p "    \"%s\": { \"count\": %d, \"sum_us\": %d, \"buckets\": [%s] }%s\n"
        ph count sum
        (String.concat ", "
           (List.map
              (fun (le, n) -> Printf.sprintf "{ \"le\": \"%s\", \"n\": %d }" le n)
              buckets))
        (if i = nph - 1 then "" else ","))
    phase_snaps;
  p "  },\n";
  p
    "  \"serve\": { \"submitted\": %d, \"completed\": %d, \"rejected\": %d, \
     \"dropped\": %d, \"timeouts\": %d, \"retries\": %d, \"failed\": %d, \
     \"batches\": %d, \"batched_frames\": %d, \"batch_high_water\": %d, \
     \"queue_high_water\": %d },\n"
    (m "serve.submitted") (m "serve.completed") (m "serve.rejected")
    (m "serve.dropped") (m "serve.timeouts") (m "serve.retries")
    (m "serve.failed") (m "serve.batches")
    (m "serve.batched_frames")
    (m "serve.batch_high_water")
    (m "serve.queue_high_water");
  p
    "  \"analysis\": { \"kernels_checked\": %d, \"plans_checked\": %d, \
     \"findings\": %d, \"errors\": %d, \"warnings\": %d, \"notes\": %d, \
     \"memo_hits\": %d, \"memo_misses\": %d },\n"
    (m "analysis.kernels_checked")
    (m "analysis.plans_checked")
    (m "analysis.findings") (m "analysis.errors") (m "analysis.warnings")
    (m "analysis.notes") (m "analysis.memo_hits") (m "analysis.memo_misses");
  p "  \"perf_lint\": [\n";
  let nperf = List.length !perf_reports in
  List.iteri
    (fun i (r : Study.Experiments.perf_report) ->
      let errors = Analysis.Finding.errors r.Study.Experiments.pl_findings in
      let min_eff =
        List.fold_left
          (fun acc (row : Study.Experiments.perf_row) ->
            Float.min acc row.Study.Experiments.pr_efficiency)
          1.0 r.Study.Experiments.pl_rows
      in
      p
        "    { \"pipeline\": \"%s\", \"kernels\": %d, \"buffers\": %d, \
         \"findings\": %d, \"errors\": %d, \"warnings\": %d, \"notes\": \
         %d, \"min_efficiency\": %.3f, \"shipped_clean\": %b }%s\n"
        (json_escape r.Study.Experiments.pl_pipeline)
        r.Study.Experiments.pl_kernels
        (List.length r.Study.Experiments.pl_rows)
        (List.length r.Study.Experiments.pl_findings)
        errors
        (Analysis.Finding.warnings r.Study.Experiments.pl_findings)
        (Analysis.Finding.notes r.Study.Experiments.pl_findings)
        min_eff (errors = 0)
        (if i = nperf - 1 then "" else ","))
    !perf_reports;
  p "  ],\n";
  p "  \"devices\": {\n";
  p "    \"sharding\": [\n";
  let ndev = List.length !devices_rows in
  List.iteri
    (fun i (r : Study.Experiments.devices_row) ->
      p
        "      { \"devices\": %d, \"rows\": %d, \"cols\": %d, \"frames\": \
         %d, \"makespan_us\": %.1f, \"serial_us\": %.1f, \"speedup\": %.3f, \
         \"pcie_bytes\": %d, \"peer_bytes\": %d, \"bit_identical\": %b }%s\n"
        r.Study.Experiments.dv_devices r.Study.Experiments.dv_rows
        r.Study.Experiments.dv_cols r.Study.Experiments.dv_frames
        r.Study.Experiments.dv_makespan_us r.Study.Experiments.dv_serial_us
        r.Study.Experiments.dv_speedup r.Study.Experiments.dv_pcie_bytes
        r.Study.Experiments.dv_peer_bytes r.Study.Experiments.dv_bit_identical
        (if i = ndev - 1 then "" else ","))
    !devices_rows;
  p "    ],\n";
  p "    \"serving\": [\n";
  let ndsv = List.length !device_serving_rows in
  List.iteri
    (fun i r ->
      p
        "      { \"devices\": %d, \"achieved_rps\": %.1f, \"migrations\": \
         %d }%s\n"
        r.dsv_devices r.dsv_achieved_rps r.dsv_migrations
        (if i = ndsv - 1 then "" else ","))
    !device_serving_rows;
  p "    ]\n";
  p "  },\n";
  p "  \"total_seconds\": %.3f\n"
    (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 timings);
  p "}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let () =
  let opts = parse_options () in
  if opts.domains > 0 then begin
    Gpu.Pool.set_default_domains opts.domains;
    Gpu.Context.set_default_mode
      (if opts.domains <= 1 then Gpu.Context.Sequential
       else Gpu.Context.Parallel opts.domains)
  end;
  Optimizer.Mode.set_default opts.opt;
  if opts.trace <> None then Obs.Tracer.set_enabled true;
  let scale = if opts.smoke then small else Study.Scale.paper in
  let plane = dummy_plane scale in
  let timings = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    Obs.Tracer.with_span ~cat:"bench" name f;
    timings := (name, Unix.gettimeofday () -. t0) :: !timings
  in
  timed "reproduction" (reproduction ~scale);
  timed "ablation/wlf" (ablation_wlf ~scale ~plane);
  timed "ablation/split" (ablation_split ~scale ~plane);
  timed "ablation/transfers" (ablation_transfers ~scale);
  timed "ablation/overlap" (ablation_overlap ~scale);
  timed "ablation/fusion" (ablation_fusion ~scale);
  timed "ablation/perf-lint" (ablation_perf_lint ~scale);
  timed "ablation/autotune" (ablation_autotune ~smoke:opts.smoke);
  timed "ablation/generic" (ablation_generic ~scale);
  timed "ablation/devices" (ablation_devices ~scale);
  timed "serving" (serving ~smoke:opts.smoke);
  timed "serving/devices" (serving_devices ~smoke:opts.smoke);
  timed "microbenchmarks" (run_benchmarks ~smoke:opts.smoke);
  print_newline ();
  let timings = List.rev !timings in
  Printf.printf "Section wall-clock (host):\n";
  List.iter
    (fun (name, s) -> Printf.printf "  %-22s %7.2f s\n" name s)
    timings;
  Option.iter
    (fun path -> write_json path ~opts ~scale ~timings)
    opts.json;
  Option.iter
    (fun path ->
      Gpu.Trace_export.write path;
      Printf.printf "wrote %s\n" path)
    opts.trace;
  Option.iter
    (fun path ->
      Obs.Metrics.write_file path;
      Printf.printf "wrote %s\n" path)
    opts.metrics
