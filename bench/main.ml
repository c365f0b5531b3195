(* The benchmark harness.

   Three sections:

   1. {b Reproduction} — regenerates every table and figure of the
      paper's evaluation at full scale (1080x1920, 300 frames) and
      prints them in the paper's layout, next to the published numbers.
   2. {b Ablations} — the design-choice studies DESIGN.md calls out
      (WLF on/off, Figure 8 generator splitting on/off, transfer
      batching, generic vs non-generic, fusion, autotuning, sharding),
      reported in simulated GTX480 time.
   3. {b Serving} — the streaming engine under load, in wall clock.

   Each section's host wall clock is printed at the end and, with
   [--json], written to a report that bench/regress.ml diffs against
   the committed baseline.  Per-layer host time of the compilers and
   the executors is perfbench's ledger, not this harness's.  The flags
   are described by [--help]. *)

open Cmdliner

(* JSON numbers are floats. *)
let int_num n = Obs.Json.Num (float_of_int n)

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
(* 3. Serving: streaming engine under load (wall clock)                *)
(* ------------------------------------------------------------------ *)

(* Each pipeline is first driven closed-loop (one outstanding request
   per stream) to estimate its saturation rate and unqueued latency
   baseline, then offered 2x that rate open-loop under the two
   load-shedding policies.  The acceptance bar: shedding keeps p99
   bounded even at 2x saturation.  "Bounded" is checked against the
   structural worst case of a bounded queue -- a request admitted into
   a full queue of [capacity] waits at most [capacity + batch] service
   times -- with a 4x allowance for scheduling noise. *)

let serving_rows : Obs.Json.t list ref = ref []

let slo_rows : Obs.Slo.t list ref = ref []

let serving_row ~pipeline ~policy ~bound_us (r : Serve.Loadgen.report) =
  let c = r.Serve.Loadgen.counts in
  let l = r.Serve.Loadgen.latency in
  let ms us = Obs.Json.Num (us /. 1000.) in
  Obs.Json.(
    Obj
      [
        ("pipeline", Str pipeline);
        ("policy", Str policy);
        ("offered_rps", Num r.Serve.Loadgen.offered_rps);
        ("achieved_rps", Num r.Serve.Loadgen.achieved_rps);
        ("completed", int_num c.Serve.Loadgen.completed);
        ("rejected", int_num c.Serve.Loadgen.rejected);
        ("dropped", int_num c.Serve.Loadgen.dropped);
        ("timed_out", int_num c.Serve.Loadgen.timed_out);
        ("failed", int_num c.Serve.Loadgen.failed);
        ("p50_ms", ms l.Serve.Stats.p50_us);
        ("p95_ms", ms l.Serve.Stats.p95_us);
        ("p99_ms", ms l.Serve.Stats.p99_us);
        ("p999_ms", ms l.Serve.Stats.p999_us);
        ("p99_bounded", Bool (l.Serve.Stats.p99_us <= bound_us));
      ])

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

(* Reduced scale of --smoke. *)
let small = { Study.Scale.rows = 72; cols = 64; frames = 2 }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type options = {
  smoke : bool;
  json : string option;  (** output path when [--json] was given *)
  domains : int option;  (** pool size when [--domains] was given *)
  opt : Optimizer.Mode.t;  (** plan optimisation mode for both pipelines *)
  trace : string option;  (** Chrome trace output when [--trace] was given *)
  metrics : string option;  (** metrics dump when [--metrics] was given *)
}

let today () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

(* The top-level members of the --json report.  Key names and row
   identities are what bench/regress.ml and bench/validate_obs.ml read,
   so renaming one breaks the gate against the committed baseline. *)
let report ~opts ~scale ~timings =
  let open Obs.Json in
  let m name = Option.value ~default:0 (Obs.Metrics.find name) in
  (* A counter block: each key is the metric [prefix ^ key]. *)
  let counters prefix keys =
    List.map (fun k -> (k, int_num (m (prefix ^ k)))) keys
  in
  let rows f l = Arr (List.map (fun r -> Obj (f r)) l) in
  [
    ("date", Str (today ()));
    ("smoke", Bool opts.smoke);
    ( "domains",
      int_num
        (Option.value opts.domains ~default:(Gpu.Pool.default_domains ())) );
    ("opt", Str (Optimizer.Mode.to_string opts.opt));
    ( "scale",
      Obj
        [
          ("rows", int_num scale.Study.Scale.rows);
          ("cols", int_num scale.Study.Scale.cols);
          ("frames", int_num scale.Study.Scale.frames);
        ] );
    ( "sections",
      rows
        (fun (name, seconds) ->
          [ ("name", Str name); ("seconds", Num seconds) ])
        timings );
    ( "cache_stats",
      Obj
        (counters "gpu."
           [ "compiles"; "compile_hits"; "cost_profiles"; "cost_hits" ]) );
    ( "gpu",
      Obj
        (counters "gpu."
           [
             "launches"; "h2d_copies"; "h2d_bytes"; "d2h_copies"; "d2h_bytes";
             "alloc_high_water_bytes";
           ]
        @ [
            ("peak_bytes", int_num (m "gpu.alloc_high_water_bytes"));
            ("buffers_reused", int_num (m "fusion.buffers_reused"));
          ]) );
    ( "pool",
      Obj
        (("size", int_num (Gpu.Pool.size (Gpu.Pool.get ())))
        :: counters "pool."
             [
               "tasks"; "worker_tasks"; "helped_tasks"; "batches";
               "queue_high_water"; "peak_parallelism";
             ]) );
    ( "fusion",
      Obj
        (counters "fusion."
           [
             "kernels_eliminated"; "launches_saved"; "buffers_eliminated";
             "bytes_saved"; "buffers_reused";
           ]) );
    ( "optimizer",
      Obj
        (counters "optimizer."
           [
             "candidates"; "rules_applied"; "verify_rejections";
             "plan_cache_hits"; "plan_cache_misses"; "replay_divergences";
           ]
        @ [ ("plan_cache_size", int_num (Optimizer.Cache.size ())) ]) );
    ( "autotune_ablation",
      rows
        (fun (r : Study.Experiments.autotune_row) ->
          [
            ("pipeline", Str r.at_pipeline);
            ("rows", int_num r.at_rows);
            ("cols", int_num r.at_cols);
            ("off_us", Num r.at_off_us);
            ("fuse_us", Num r.at_fuse_us);
            ("auto_us", Num r.at_auto_us);
            ("rules", Arr (List.map (fun rule -> Str rule) r.at_rules));
            ("bit_checked", Bool r.at_bit_checked);
            ("bit_identical", Bool r.at_bit_identical);
          ])
        !autotune_rows );
    ( "fusion_ablation",
      rows
        (fun (r : Study.Experiments.fusion_row) ->
          [
            ("pipeline", Str r.pipeline);
            ("fused", Bool r.fused);
            ("kernels", int_num r.kernels);
            ("launches", int_num r.launches);
            ("intermediates", int_num r.intermediates);
            ("peak_bytes", int_num r.peak_bytes);
            ("modelled_us", Num r.modelled_us);
            ("bit_identical", Bool r.bit_identical);
          ])
        !fusion_rows );
    ( "overlap",
      Obj
        (List.map
           (fun (name, (s : Gpu.Overlap.summary)) ->
             ( name,
               Obj
                 [
                   ("serial_s", Num s.serial_s);
                   ("pipelined_s", Num s.pipelined_s);
                   ("bottleneck_share", Num s.bottleneck_share);
                   ("saving_pct", Num s.saving_pct);
                 ] ))
           !overlap_summaries) );
    ("serving", Arr !serving_rows);
    ( "slo",
      rows
        (fun s ->
          [
            ("name", Str (Obs.Slo.name s));
            ("objective_ms", Num (Obs.Slo.objective_us s /. 1000.));
            ("budget", Num (Obs.Slo.budget s));
            ("total", int_num (Obs.Slo.total s));
            ("breaches", int_num (Obs.Slo.breaches s));
            ("breach_rate", Num (Obs.Slo.breach_rate s));
            ("burn", Num (Obs.Slo.burn s));
          ])
        !slo_rows );
    (* Per-phase latency-attribution histograms the engines fed while
       serving ran; the buckets mirror the metrics registry. *)
    ( "serve_phases",
      Obj
        (List.filter_map
           (fun ph ->
             Option.map
               (fun (count, sum, buckets) ->
                 ( ph,
                   Obj
                     [
                       ("count", int_num count);
                       ("sum_us", int_num sum);
                       ( "buckets",
                         rows
                           (fun (le, n) -> [ ("le", Str le); ("n", int_num n) ])
                           buckets );
                     ] ))
               (Obs.Metrics.histogram_snapshot
                  (Printf.sprintf "serve.phase.%s_us" ph)))
           [ "queue_wait"; "batch_gather"; "execute"; "retry" ]) );
    ( "serve",
      Obj
        (counters "serve."
           [
             "submitted"; "completed"; "rejected"; "dropped"; "timeouts";
             "retries"; "failed"; "batches"; "batched_frames";
             "batch_high_water"; "queue_high_water";
           ]) );
    ( "analysis",
      Obj
        (counters "analysis."
           [
             "kernels_checked"; "plans_checked"; "findings"; "errors";
             "warnings"; "notes"; "memo_hits"; "memo_misses";
           ]) );
    ( "perf_lint",
      rows
        (fun (r : Study.Experiments.perf_report) ->
          let errors = Analysis.Finding.errors r.pl_findings in
          [
            ("pipeline", Str r.pl_pipeline);
            ("kernels", int_num r.pl_kernels);
            ("buffers", int_num (List.length r.pl_rows));
            ("findings", int_num (List.length r.pl_findings));
            ("errors", int_num errors);
            ("warnings", int_num (Analysis.Finding.warnings r.pl_findings));
            ("notes", int_num (Analysis.Finding.notes r.pl_findings));
            ( "min_efficiency",
              Num
                (List.fold_left
                   (fun acc (row : Study.Experiments.perf_row) ->
                     Float.min acc row.pr_efficiency)
                   1.0 r.pl_rows) );
            ("shipped_clean", Bool (errors = 0));
          ])
        !perf_reports );
    ( "devices",
      Obj
        [
          ( "sharding",
            rows
              (fun (r : Study.Experiments.devices_row) ->
                [
                  ("devices", int_num r.dv_devices);
                  ("rows", int_num r.dv_rows);
                  ("cols", int_num r.dv_cols);
                  ("frames", int_num r.dv_frames);
                  ("makespan_us", Num r.dv_makespan_us);
                  ("serial_us", Num r.dv_serial_us);
                  ("speedup", Num r.dv_speedup);
                  ("pcie_bytes", int_num r.dv_pcie_bytes);
                  ("peer_bytes", int_num r.dv_peer_bytes);
                  ("bit_identical", Bool r.dv_bit_identical);
                ])
              !devices_rows );
          ( "serving",
            rows
              (fun r ->
                [
                  ("devices", int_num r.dsv_devices);
                  ("achieved_rps", Num r.dsv_achieved_rps);
                  ("migrations", int_num r.dsv_migrations);
                ])
              !device_serving_rows );
        ] );
    ( "total_seconds",
      Num (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 timings) );
  ]

(* One top-level member per line, so the committed baseline diffs by
   block. *)
let write_json path members =
  let line (k, v) =
    Printf.sprintf "  %s: %s" (Obs.Json.escape k) (Obs.Json.render v)
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n" (List.map line members)));
  Printf.printf "\nwrote %s\n" path

let run opts =
  Option.iter
    (fun n ->
      Gpu.Pool.set_default_domains n;
      Gpu.Context.set_default_mode
        (if n <= 1 then Gpu.Context.Sequential else Gpu.Context.Parallel n))
    opts.domains;
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
  print_newline ();
  let timings = List.rev !timings in
  Printf.printf "Section wall-clock (host):\n";
  List.iter
    (fun (name, s) -> Printf.printf "  %-22s %7.2f s\n" name s)
    timings;
  Option.iter
    (fun path -> write_json path (report ~opts ~scale ~timings))
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

(* An optional-value flag takes PATH from "--flag=PATH" or from the
   next argument when that does not start with a dash. *)
let path_flag name ~default ~doc =
  Arg.(
    value
    & opt ~vopt:(Some default) (some string) None
    & info [ name ] ~docv:"PATH" ~doc)

let positive =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok n
        | _ ->
            Error
              (`Msg (Printf.sprintf "expected a positive integer, got %s" s))),
      Format.pp_print_int )

let options =
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Run every section at the reduced 72x64 scale, fast enough \
                for $(b,dune runtest).")
  in
  let json =
    path_flag "json"
      ~default:(Printf.sprintf "BENCH_%s.json" (today ()))
      ~doc:
        "Also write the section wall clock and the embedded counter \
         blocks and ablation rows as JSON to $(docv)."
  in
  let domains =
    Arg.(
      value
      & opt (some positive) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Resize the shared domain pool to $(docv) (1 = sequential).")
  in
  let opt =
    Arg.(
      value
      & opt
          (enum
             [
               ("off", Optimizer.Mode.Off);
               ("fuse", Optimizer.Mode.Fuse);
               ("auto", Optimizer.Mode.Auto);
             ])
          Optimizer.Mode.Off
      & info [ "opt" ]
          ~doc:
            "Plan optimisation mode for both GPU pipelines: $(b,off), \
             $(b,fuse) or $(b,auto).  The fusion and autotune \
             ablations measure every setting explicitly, and the serving \
             section always serves auto-tuned plans.")
  in
  let trace =
    path_flag "trace" ~default:"bench_trace.json"
      ~doc:
        "Write a Chrome trace-event JSON file with modelled-device tracks \
         and host wall-clock spans to $(docv)."
  in
  let metrics =
    path_flag "metrics" ~default:"bench_metrics.json"
      ~doc:
        "Dump the metrics registry to $(docv); a .json suffix selects \
         JSON."
  in
  Term.(
    const (fun smoke json domains opt trace metrics ->
        { smoke; json; domains; opt; trace; metrics })
    $ smoke $ json $ domains $ opt $ trace $ metrics)

let () =
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "bench"
             ~doc:"Reproduce the paper's artefacts, run the ablations and \
                   time each section")
          Term.(const run $ options)))
