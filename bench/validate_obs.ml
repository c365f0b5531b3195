(* validate_obs -- sanity-check the artefacts of `bench --trace
   --metrics --json` (run by the dune runtest smoke rule).

   Checks that the trace parses as JSON and contains complete ("X")
   events on both clock domains (a device track and a host span), that
   the metrics dump parses and carries the core gpu.*, pool.* and
   serve.* series, and -- when the bench JSON report is also given --
   that its gpu block surfaces the device memory high-water mark and
   arena reuse, that the serving block shows the load-shedding
   policies keeping p99 bounded at 2x saturation, and that the
   optimizer block records a live autotuning search whose auto arm
   never loses to either fixed mode. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let parse what path =
  match Obs.Json.parse (read_file path) with
  | Ok j -> j
  | Error m -> fail "%s %s: invalid JSON: %s" what path m

let () =
  let trace_path, metrics_path, bench_path =
    match Sys.argv with
    | [| _; t; m |] -> (t, m, None)
    | [| _; t; m; b |] -> (t, m, Some b)
    | _ -> fail "usage: validate_obs TRACE.json METRICS.json [BENCH.json]"
  in
  let trace = parse "trace" trace_path in
  let events =
    match Obs.Json.member "traceEvents" trace with
    | Some (Obs.Json.Arr evs) -> evs
    | _ -> fail "trace %s: no traceEvents array" trace_path
  in
  let cat_of e =
    match Obs.Json.member "cat" e with Some (Obs.Json.Str c) -> c | _ -> ""
  in
  let complete =
    List.filter
      (fun e -> Obs.Json.member "ph" e = Some (Obs.Json.Str "X"))
      events
  in
  let device = List.filter (fun e -> cat_of e = "device") complete in
  let host = List.filter (fun e -> cat_of e <> "device") complete in
  if device = [] then fail "trace %s: no modelled-device events" trace_path;
  if host = [] then fail "trace %s: no host wall-clock spans" trace_path;
  (* Causal request flows: the serving engines submit every request
     under an Obs.Ctx, so the trace must contain flow start/step events
     and at least one flow id whose spans cover the full phase chain
     queue-wait -> batch-gather -> execute. *)
  let ph_of e =
    match Obs.Json.member "ph" e with Some (Obs.Json.Str p) -> p | _ -> ""
  in
  if not (List.exists (fun e -> ph_of e = "s") events) then
    fail "trace %s: no flow-start (ph:s) events" trace_path;
  if not (List.exists (fun e -> ph_of e = "t") events) then
    fail "trace %s: no flow-step (ph:t) events" trace_path;
  let flow_of e =
    match Obs.Json.member "args" e with
    | Some args -> (
        match Obs.Json.member "flow" args with
        | Some (Obs.Json.Num f) -> int_of_float f
        | _ -> 0)
    | None -> 0
  in
  let name_of e =
    match Obs.Json.member "name" e with Some (Obs.Json.Str n) -> n | _ -> ""
  in
  let phase_chain = [ "serve.queue_wait"; "serve.batch_gather"; "serve.execute" ] in
  let flows = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let f = flow_of e in
      if f > 0 then
        Hashtbl.replace flows f
          (name_of e :: (try Hashtbl.find flows f with Not_found -> [])))
    host;
  let linked =
    Hashtbl.fold
      (fun _ names acc ->
        acc || List.for_all (fun ph -> List.mem ph names) phase_chain)
      flows false
  in
  if not (linked || Hashtbl.length flows = 0) then
    fail
      "trace %s: no request flow links queue_wait, batch_gather and execute"
      trace_path;
  if Hashtbl.length flows = 0 then
    fail "trace %s: no host spans carry a flow id" trace_path;
  let metrics = parse "metrics" metrics_path in
  let series =
    match Obs.Json.member "metrics" metrics with
    | Some obj -> obj
    | None -> fail "metrics %s: no metrics object" metrics_path
  in
  let get name =
    match Obs.Json.member name series with
    | Some (Obs.Json.Num v) -> int_of_float v
    | _ -> fail "metrics %s: missing series %s" metrics_path name
  in
  if get "gpu.launches" <= 0 then
    fail "metrics %s: no kernel launches recorded" metrics_path;
  (* The verification gates run inside both compilers (lint mode is the
     default), so a bench run must have analyzed kernels. *)
  if get "analysis.kernels_checked" <= 0 then
    fail "metrics %s: no kernels statically analyzed" metrics_path;
  ignore (get "analysis.plans_checked");
  (* The fusion ablation always measures the fused arm, so a bench run
     must have eliminated kernels (and recorded the companion series). *)
  if get "fusion.kernels_eliminated" <= 0 then
    fail "metrics %s: fusion ablation eliminated no kernels" metrics_path;
  (* Serving runs each frame on a fresh context, so the process-wide
     kernel-preparation and cost-profile caches must have been hit --
     this is exactly the attribution the serving engine relies on to
     keep steady-state frames compilation-free. *)
  if get "gpu.compile_hits" <= 0 then
    fail "metrics %s: process-wide kernel cache recorded no hits"
      metrics_path;
  if get "gpu.cost_hits" <= 0 then
    fail "metrics %s: process-wide cost cache recorded no hits" metrics_path;
  (* The autotune ablation must have searched (candidates scored, rules
     applied) and the auto-mode serving sessions must have found their
     shapes already tuned. *)
  if get "optimizer.candidates" <= 0 then
    fail "metrics %s: autotuner scored no candidates" metrics_path;
  if get "optimizer.rules_applied" <= 0 then
    fail "metrics %s: autotuner applied no rewrite rules" metrics_path;
  if get "optimizer.plan_cache_hits" <= 0 then
    fail "metrics %s: tuned-plan cache recorded no hits" metrics_path;
  List.iter
    (fun name -> ignore (get name))
    [
      "gpu.compiles"; "gpu.compile_hits"; "gpu.cost_profiles"; "gpu.cost_hits";
      "gpu.h2d_bytes"; "gpu.d2h_bytes"; "gpu.alloc_high_water_bytes";
      "pool.tasks"; "pool.batches"; "pool.size";
      "fusion.launches_saved"; "fusion.buffers_eliminated";
      "fusion.bytes_saved"; "fusion.buffers_reused";
      "serve.rejected"; "serve.dropped"; "serve.timeouts"; "serve.retries";
      "serve.failed"; "serve.queue_high_water"; "serve.batch_high_water";
    ];
  (* The latency distribution is a histogram, rendered in its own block. *)
  (match Obs.Json.member "histograms" metrics with
  | Some histos -> (
      match Obs.Json.member "serve.latency_us" histos with
      | Some h ->
          (match Obs.Json.member "count" h with
          | Some (Obs.Json.Num n) when n > 0. -> ()
          | _ ->
              fail "metrics %s: serve.latency_us histogram is empty"
                metrics_path)
      | None ->
          fail "metrics %s: missing histogram serve.latency_us" metrics_path)
  | None -> fail "metrics %s: no histograms block" metrics_path);
  (* The bench serving section must actually have served traffic. *)
  if get "serve.submitted" <= 0 then
    fail "metrics %s: serving section submitted no requests" metrics_path;
  if get "serve.completed" <= 0 then
    fail "metrics %s: serving section completed no requests" metrics_path;
  if get "serve.batches" <= 0 then
    fail "metrics %s: serving section launched no batches" metrics_path;
  (* SLO classification ran for the 2x-saturation arms, plan-cache
     attribution for the sessions, and the exact recorder never dropped
     silently (the counter must at least be registered). *)
  if get "slo.sac.total" <= 0 then
    fail "metrics %s: sac SLO observed no requests" metrics_path;
  if get "slo.gaspard.total" <= 0 then
    fail "metrics %s: gaspard SLO observed no requests" metrics_path;
  if get "serve.plan_cache_hits" <= 0 then
    fail "metrics %s: session plan cache recorded no hits" metrics_path;
  ignore (get "stats.dropped_samples");
  (match bench_path with
  | None -> ()
  | Some bench_path ->
      (* Serving host spans must have landed in the trace export. *)
      if not (List.exists (fun e -> cat_of e = "serve") complete) then
        fail "trace %s: no serve.* spans" trace_path;
      let bench = parse "bench report" bench_path in
      let gpu =
        match Obs.Json.member "gpu" bench with
        | Some obj -> obj
        | None -> fail "bench report %s: no gpu block" bench_path
      in
      List.iter
        (fun name ->
          match Obs.Json.member name gpu with
          | Some (Obs.Json.Num _) -> ()
          | _ -> fail "bench report %s: gpu block missing %s" bench_path name)
        [ "peak_bytes"; "buffers_reused" ];
      (* The searches re-gate unchanged kernels, so the analysis verdict
         memo must answer some of them. *)
      (match Obs.Json.member "analysis" bench with
      | Some analysis -> (
          match Obs.Json.member "memo_hits" analysis with
          | Some (Obs.Json.Num n) when n > 0. -> ()
          | Some _ ->
              fail "bench report %s: analysis verdict memo recorded no hits"
                bench_path
          | None ->
              fail "bench report %s: analysis block missing memo_hits"
                bench_path)
      | None -> fail "bench report %s: no analysis block" bench_path);
      let rows =
        match Obs.Json.member "serving" bench with
        | Some (Obs.Json.Arr rows) -> rows
        | _ -> fail "bench report %s: no serving array" bench_path
      in
      if rows = [] then fail "bench report %s: serving array empty" bench_path;
      let str name row =
        match Obs.Json.member name row with
        | Some (Obs.Json.Str s) -> s
        | _ ->
            fail "bench report %s: serving row missing field %s" bench_path
              name
      in
      let shedding = ref 0 in
      List.iter
        (fun row ->
          List.iter
            (fun name ->
              match Obs.Json.member name row with
              | Some (Obs.Json.Num _) -> ()
              | _ ->
                  fail "bench report %s: serving row missing field %s"
                    bench_path name)
            [
              "offered_rps"; "achieved_rps"; "completed"; "rejected";
              "dropped"; "timed_out"; "failed"; "p50_ms"; "p95_ms"; "p99_ms";
              "p999_ms";
            ];
          let policy = str "policy" row in
          if policy = "reject" || policy = "drop" then begin
            incr shedding;
            match Obs.Json.member "p99_bounded" row with
            | Some (Obs.Json.Bool true) -> ()
            | _ ->
                fail
                  "bench report %s: %s/%s at 2x saturation has unbounded p99"
                  bench_path (str "pipeline" row) policy
          end)
        rows;
      if !shedding < 4 then
        fail
          "bench report %s: expected reject+drop rows for both pipelines, \
           found %d"
          bench_path !shedding;
      (* SLO block: one entry per pipeline, populated by the 2x-sat
         open-loop runs. *)
      let slos =
        match Obs.Json.member "slo" bench with
        | Some (Obs.Json.Arr rows) -> rows
        | _ -> fail "bench report %s: no slo array" bench_path
      in
      List.iter
        (fun want ->
          match
            List.find_opt (fun s -> str "name" s = want) slos
          with
          | None -> fail "bench report %s: no slo entry for %s" bench_path want
          | Some s ->
              List.iter
                (fun field ->
                  match Obs.Json.member field s with
                  | Some (Obs.Json.Num _) -> ()
                  | _ ->
                      fail "bench report %s: slo %s missing field %s"
                        bench_path want field)
                [ "objective_ms"; "budget"; "total"; "breaches";
                  "breach_rate"; "burn" ];
              (match Obs.Json.member "total" s with
              | Some (Obs.Json.Num n) when n > 0. -> ()
              | _ ->
                  fail "bench report %s: slo %s observed no requests"
                    bench_path want))
        [ "sac"; "gaspard" ];
      (* Per-phase attribution histograms: every served request passed
         through all three phases, so their counts must be positive. *)
      let phases =
        match Obs.Json.member "serve_phases" bench with
        | Some obj -> obj
        | None -> fail "bench report %s: no serve_phases block" bench_path
      in
      List.iter
        (fun ph ->
          match Obs.Json.member ph phases with
          | Some h -> (
              match Obs.Json.member "count" h with
              | Some (Obs.Json.Num n) when n > 0. -> ()
              | _ ->
                  fail "bench report %s: serve_phases.%s is empty" bench_path
                    ph)
          | None ->
              fail "bench report %s: serve_phases missing %s" bench_path ph)
        [ "queue_wait"; "batch_gather"; "execute" ];
      (* Autotune ablation: per (pipeline, shape), the searched plan
         must be no slower under the cost model than either fixed mode
         (the search scores the fixed-fuse plan as a candidate, so this
         is structural -- epsilon only absorbs float formatting). *)
      let at_rows =
        match Obs.Json.member "autotune_ablation" bench with
        | Some (Obs.Json.Arr rows) -> rows
        | _ -> fail "bench report %s: no autotune_ablation array" bench_path
      in
      if at_rows = [] then
        fail "bench report %s: autotune_ablation array empty" bench_path;
      let num name row =
        match Obs.Json.member name row with
        | Some (Obs.Json.Num v) -> v
        | _ ->
            fail "bench report %s: autotune row missing field %s" bench_path
              name
      in
      let seen = ref [] in
      let bit_checked_pipelines = ref [] in
      (* Rows carry the study's full pipeline names; key on the
         backend prefix so the check is robust to label tweaks. *)
      let backend_of pipeline =
        if String.length pipeline >= 3 && String.sub pipeline 0 3 = "SAC" then
          "sac"
        else "gaspard"
      in
      List.iter
        (fun row ->
          let pipeline = backend_of (str "pipeline" row) in
          let rows_n = int_of_float (num "rows" row) in
          let cols_n = int_of_float (num "cols" row) in
          let off = num "off_us" row
          and fuse = num "fuse_us" row
          and auto = num "auto_us" row in
          let eps = 0.2 in
          if auto > Float.min off fuse +. eps then
            fail
              "bench report %s: %s %dx%d auto (%.1f us) slower than \
               min(off %.1f, fuse %.1f)"
              bench_path pipeline rows_n cols_n auto off fuse;
          (match Obs.Json.member "bit_checked" row with
          | Some (Obs.Json.Bool true) -> (
              bit_checked_pipelines := pipeline :: !bit_checked_pipelines;
              match Obs.Json.member "bit_identical" row with
              | Some (Obs.Json.Bool true) -> ()
              | _ ->
                  fail "bench report %s: %s %dx%d tuned plan not bit-identical"
                    bench_path pipeline rows_n cols_n)
          | _ -> ());
          seen := (pipeline, rows_n, cols_n) :: !seen)
        at_rows;
      List.iter
        (fun (pipeline, r, c) ->
          if not (List.mem (pipeline, r, c) !seen) then
            fail "bench report %s: autotune_ablation missing %s at %dx%d"
              bench_path pipeline r c)
        [
          ("sac", 72, 64); ("sac", 1080, 1920);
          ("gaspard", 72, 64); ("gaspard", 1080, 1920);
        ];
      List.iter
        (fun pipeline ->
          if not (List.mem pipeline !bit_checked_pipelines) then
            fail
              "bench report %s: no bit-checked autotune row for pipeline %s"
              bench_path pipeline)
        [ "sac"; "gaspard" ];
      (* Devices block: the multi-device sharding ablation ran, every
         configuration stayed bit-identical, adding a second device
         shortened the modelled makespan at every shape, and the
         serving sweep covered 1/2/4 devices. *)
      let devs =
        match Obs.Json.member "devices" bench with
        | Some obj -> obj
        | None -> fail "bench report %s: no devices block" bench_path
      in
      let sharding =
        match Obs.Json.member "sharding" devs with
        | Some (Obs.Json.Arr rows) -> rows
        | _ -> fail "bench report %s: no devices.sharding array" bench_path
      in
      if sharding = [] then
        fail "bench report %s: devices.sharding array empty" bench_path;
      let makespans = Hashtbl.create 8 in
      List.iter
        (fun row ->
          List.iter
            (fun name ->
              match Obs.Json.member name row with
              | Some (Obs.Json.Num _) -> ()
              | _ ->
                  fail "bench report %s: devices.sharding row missing %s"
                    bench_path name)
            [
              "devices"; "rows"; "cols"; "frames"; "makespan_us";
              "serial_us"; "speedup"; "pcie_bytes"; "peer_bytes";
            ];
          (match Obs.Json.member "bit_identical" row with
          | Some (Obs.Json.Bool true) -> ()
          | _ ->
              fail
                "bench report %s: sharded run not bit-identical at %dx%d \
                 with %d device(s)"
                bench_path
                (int_of_float (num "rows" row))
                (int_of_float (num "cols" row))
                (int_of_float (num "devices" row)));
          Hashtbl.replace makespans
            (int_of_float (num "rows" row), int_of_float (num "cols" row),
             int_of_float (num "devices" row))
            (num "makespan_us" row))
        sharding;
      Hashtbl.iter
        (fun (r, c, n) one ->
          if n = 1 then
            match Hashtbl.find_opt makespans (r, c, 2) with
            | Some two when two >= one ->
                fail
                  "bench report %s: 2-device makespan (%.0f us) no better \
                   than 1 device (%.0f us) at %dx%d"
                  bench_path two one r c
            | _ -> ())
        makespans;
      let dserving =
        match Obs.Json.member "serving" devs with
        | Some (Obs.Json.Arr rows) -> rows
        | _ -> fail "bench report %s: no devices.serving array" bench_path
      in
      List.iter
        (fun want ->
          match
            List.find_opt
              (fun row -> int_of_float (num "devices" row) = want)
              dserving
          with
          | None ->
              fail "bench report %s: devices.serving has no %d-device row"
                bench_path want
          | Some row ->
              if num "achieved_rps" row <= 0. then
                fail
                  "bench report %s: %d-device serving achieved no throughput"
                  bench_path want)
        [ 1; 2; 4 ];
      (* Per-device counters: the sharding ablation drove ordinals 0-3
         (and only those), each with its own launch and cache-hit
         accounting -- a counter on a fifth ordinal would mean work
         leaked across the device set. *)
      List.iter
        (fun name ->
          if get name <= 0 then
            fail "bench report %s: %s recorded no activity" bench_path name)
        [
          "gpu.dev0.launches"; "gpu.dev1.launches"; "gpu.dev2.launches";
          "gpu.dev3.launches"; "gpu.dev0.compile_hits";
          "gpu.dev1.compile_hits"; "gpu.dev0.h2d_bytes"; "gpu.dev1.h2d_bytes";
          "gpu.dev0.p2p_bytes";
        ];
      (match Obs.Json.member "gpu.dev4.launches" series with
      | Some _ ->
          fail
            "metrics %s: gpu.dev4.launches registered -- work placed \
             outside the 4-device topology"
            metrics_path
      | None -> ());
      (* Perf-lint block: the static memory-behaviour analysis ran over
         both pipelines' generated kernels, every row carries the
         summary fields, and no shipped kernel earns an error-severity
         lint (the same invariant `--perf-lint strict` enforces). *)
      let pl_rows =
        match Obs.Json.member "perf_lint" bench with
        | Some (Obs.Json.Arr rows) -> rows
        | _ -> fail "bench report %s: no perf_lint array" bench_path
      in
      if List.length pl_rows < 3 then
        fail
          "bench report %s: perf_lint expected sac off/fuse + mde rows, \
           found %d"
          bench_path (List.length pl_rows);
      List.iter
        (fun row ->
          List.iter
            (fun name ->
              match Obs.Json.member name row with
              | Some (Obs.Json.Num _) -> ()
              | _ ->
                  fail "bench report %s: perf_lint row missing field %s"
                    bench_path name)
            [
              "kernels"; "buffers"; "findings"; "errors"; "warnings";
              "notes"; "min_efficiency";
            ];
          if num "kernels" row <= 0. then
            fail "bench report %s: perf_lint row linted no kernels" bench_path;
          if num "buffers" row <= 0. then
            fail "bench report %s: perf_lint row analyzed no buffers"
              bench_path;
          match Obs.Json.member "shipped_clean" row with
          | Some (Obs.Json.Bool true) -> ()
          | _ ->
              fail
                "bench report %s: shipped kernels of %s earn error-severity \
                 perf lints"
                bench_path (str "pipeline" row))
        pl_rows);
  Printf.printf
    "observability artefacts ok: %d device events, %d host spans, %d \
     launches, %d served\n"
    (List.length device) (List.length host) (get "gpu.launches")
    (get "serve.completed")
