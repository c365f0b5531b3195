(* served -- the streaming frame-serving engine as a tool: synthetic
   video streams offered at a fixed rate, admission-controlled by a
   bounded queue, adaptively batched and executed on the GPU pipelines.

   Where `downscale` runs a fixed offline batch, `served` is the
   serving-layer view the ROADMAP's north star asks for: N concurrent
   streams arrive open-loop at --rate requests/second for --duration
   seconds, and the overload --policy decides what happens past
   saturation.  Before the load, each selected pipeline is verified
   bit-exact against the golden reference on one frame. *)

open Cmdliner

type which = Sac_only | Gaspard_only | Both

let policy_of = function
  | "reject" -> Serve.Queue.Reject
  | "drop" -> Serve.Queue.Drop_oldest
  | "block" -> Serve.Queue.Block
  | _ -> assert false

let apply_domains = function
  | None -> ()
  | Some n when n <= 0 ->
      Printf.eprintf "served: --domains must be a positive integer (got %d)\n" n;
      exit 2
  | Some n ->
      Gpu.Pool.set_default_domains n;
      Gpu.Context.set_default_mode
        (if n <= 1 then Gpu.Context.Sequential else Gpu.Context.Parallel n)

(* One-frame sanity check: the serving path must produce exactly what
   the golden downscaler produces. *)
let verify_session s fmt =
  let frame = Video.Framegen.frame fmt 0 in
  let scaled, _ = Serve.Session.run_frame s frame in
  if not (Video.Frame.equal scaled (Video.Downscaler.frame frame)) then begin
    Printf.eprintf "served: %s pipeline is not bit-exact at %dx%d\n"
      (Serve.Session.pipeline_name s)
      fmt.Video.Format.rows fmt.Video.Format.cols;
    exit 1
  end

let run_pipeline ~pipeline ~fmt ~streams ~rate ~duration ~policy ~batch_max
    ~window_us ~workers ~capacity ~deadline_ms ~slo_ms ~opt =
  let name =
    match pipeline with Serve.Session.Sac -> "sac" | Serve.Session.Mde -> "gaspard"
  in
  let sessions =
    List.init streams (fun i ->
        Serve.Session.create ~opt ~id:i ~pipeline fmt)
  in
  verify_session (List.hd sessions) fmt;
  Printf.printf "%s: %d streams verified bit-exact, offering %.0f rps for %.1fs\n%!"
    name streams rate duration;
  let slo =
    Option.map
      (fun ms -> Obs.Slo.create ~name ~objective_us:(1000. *. ms) ())
      slo_ms
  in
  Serve.Loadgen.open_loop ?deadline_ms ?slo
    ~trace_name:(Printf.sprintf "served (%s, merged frames)" name)
    ~label:name
    ~engine:
      {
        Serve.Engine.workers;
        queue_capacity = capacity;
        policy;
        batch = { Serve.Batcher.max_batch = batch_max; window_us };
      }
    ~sessions ~rate_hz:rate ~duration_s:duration ()

let main streams rate duration policy batch_max window_us workers capacity
    deadline_ms slo_ms slow_dump pipeline (rows, cols) opt domains devices
    device_profile trace metrics =
  if streams < 1 || rate <= 0. || duration <= 0. then begin
    Printf.eprintf "served: --streams, --rate and --duration must be positive\n";
    exit 2
  end;
  if workers < 1 || capacity < 1 || batch_max < 1 then begin
    Printf.eprintf
      "served: --workers, --queue-capacity and --batch-max must be positive\n";
    exit 2
  end;
  if devices < 1 then begin
    Printf.eprintf "served: --devices must be positive\n";
    exit 2
  end;
  apply_domains domains;
  Serve.Session.set_devices ~profile:device_profile devices;
  Optimizer.Mode.set_default opt;
  if trace <> None then Obs.Tracer.set_enabled true;
  let fmt = { Video.Format.name = "stream"; rows; cols } in
  let policy = policy_of policy in
  let pipes =
    match pipeline with
    | Sac_only -> [ Serve.Session.Sac ]
    | Gaspard_only -> [ Serve.Session.Mde ]
    | Both -> [ Serve.Session.Sac; Serve.Session.Mde ]
  in
  let reports =
    List.map
      (fun pipeline ->
        run_pipeline ~pipeline ~fmt ~streams ~rate ~duration ~policy
          ~batch_max ~window_us ~workers ~capacity ~deadline_ms ~slo_ms ~opt)
      pipes
  in
  print_newline ();
  Printf.printf "%-28s %-6s %8s %12s | %-40s | latency\n" "pipeline" "mode"
    "offered" "achieved" "outcomes";
  List.iter
    (fun r -> Format.printf "%a@." Serve.Loadgen.pp_report r)
    reports;
  List.iter
    (fun (r : Serve.Loadgen.report) ->
      Option.iter (fun s -> print_endline (Obs.Slo.report s)) r.slo)
    reports;
  (* Flight-recorder dump: on request (--slow-dump N), and automatically
     whenever a run missed deadlines, so the phase attribution of the
     offending requests is in the log without a re-run. *)
  List.iter
    (fun (r : Serve.Loadgen.report) ->
      let missed = r.Serve.Loadgen.counts.Serve.Loadgen.timed_out > 0 in
      let n = if slow_dump > 0 then slow_dump else if missed then 5 else 0 in
      if n > 0 then begin
        if missed && slow_dump = 0 then
          Printf.printf "\n%s: %d deadline miss(es) — dumping flight recorder\n"
            r.Serve.Loadgen.label
            r.Serve.Loadgen.counts.Serve.Loadgen.timed_out
        else Printf.printf "\n%s:\n" r.Serve.Loadgen.label;
        print_string (Obs.Recorder.render_slowest ~n r.Serve.Loadgen.flight)
      end)
    reports;
  if devices > 1 then
    Printf.printf "\ndevices: %d x %s, stream migrations: %d\n" devices
      device_profile.Gpu.Device.name
      (Serve.Session.migrations ());
  Option.iter Gpu.Trace_export.write trace;
  Option.iter Obs.Metrics.write_file metrics;
  (* Lost requests would be an engine bug; fail loudly so the smoke
     alias catches regressions. *)
  let ok =
    List.for_all
      (fun (r : Serve.Loadgen.report) ->
        let c = r.Serve.Loadgen.counts in
        c.Serve.Loadgen.completed + c.Serve.Loadgen.rejected
        + c.Serve.Loadgen.dropped + c.Serve.Loadgen.timed_out
        + c.Serve.Loadgen.failed
        = c.Serve.Loadgen.submitted
        && c.Serve.Loadgen.failed = 0)
      reports
  in
  if not ok then begin
    Printf.eprintf "served: request accounting mismatch or failures\n";
    exit 1
  end;
  0

let () =
  let streams =
    Arg.(value & opt int 4 & info [ "streams" ] ~doc:"Concurrent synthetic streams.")
  in
  let rate =
    Arg.(
      value
      & opt float 60.
      & info [ "rate" ] ~doc:"Aggregate offered rate, requests/second.")
  in
  let duration =
    Arg.(value & opt float 5. & info [ "duration" ] ~doc:"Run length, seconds.")
  in
  let policy =
    Arg.(
      value
      & opt (enum [ ("reject", "reject"); ("drop", "drop"); ("block", "block") ]) "reject"
      & info [ "policy" ]
          ~doc:
            "Overload policy when the request queue is full: $(b,reject) \
             new work, $(b,drop) the oldest queued request, or $(b,block) \
             the submitter.")
  in
  let batch_max =
    Arg.(
      value
      & opt int 8
      & info [ "batch-max" ] ~doc:"Maximum frames coalesced into one launch.")
  in
  let window_us =
    Arg.(
      value
      & opt float 200.
      & info [ "batch-window-us" ]
          ~doc:"Gather window for short batches, microseconds.")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~doc:"Engine worker domains.")
  in
  let capacity =
    Arg.(value & opt int 64 & info [ "queue-capacity" ] ~doc:"Request queue bound.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ]
          ~doc:
            "Per-request deadline; requests still queued past it complete \
             as timed out instead of executing.")
  in
  let slo_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-ms" ]
          ~doc:
            "Latency objective per pipeline, milliseconds.  Completions \
             are classified against it (timeouts and failures breach), \
             the $(b,slo.*) counters land in --metrics, and a burn-rate \
             summary line is printed per pipeline.")
  in
  let slow_dump =
    Arg.(
      value
      & opt int 0
      & info [ "slow-dump" ] ~docv:"N"
          ~doc:
            "Dump the N slowest requests from each run's flight recorder \
             with per-phase latency attribution (also triggered \
             automatically when a run misses deadlines).")
  in
  let pipeline =
    Arg.(
      value
      & opt
          (enum [ ("sac", Sac_only); ("gaspard", Gaspard_only); ("both", Both) ])
          Both
      & info [ "pipeline" ] ~doc:"sac, gaspard or both.")
  in
  let frame = Frame_size.term ~rows:288 ~cols:352 in
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
          Optimizer.Mode.Auto
      & info [ "opt" ]
          ~doc:
            "Plan optimisation for the served plans: $(b,off) keeps the \
             compiled plans, $(b,fuse) applies the fixed fusion pass, \
             $(b,auto) (default) picks the best verified plan per shape \
             under the device cost model (tuned plans are cached \
             process-wide).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ]
          ~doc:
            "OCaml domains for the shared execution pool (must be \
             positive; omit to keep the machine default).")
  in
  let devices =
    Arg.(
      value
      & opt int 1
      & info [ "devices" ]
          ~doc:
            "Simulated devices to serve across.  With more than one, \
             streams are pinned to devices by the residency-aware \
             scheduler and migrate only when the imbalance exceeds the \
             modelled transfer cost of the stream's working set.")
  in
  let device_profile =
    Arg.(
      value
      & opt
          (enum
             [
               ("gtx480", Gpu.Device.gtx480);
               ("tesla_c1060", Gpu.Device.tesla_c1060);
               ("ampere", Gpu.Device.ampere);
             ])
          Gpu.Device.gtx480
      & info [ "device-profile" ]
          ~doc:
            "Calibration profile of every simulated device: $(b,gtx480) \
             (the paper's card, default), $(b,tesla_c1060) or \
             $(b,ampere).")
  in
  let trace =
    Arg.(
      value
      & opt ~vopt:(Some "served_trace.json") (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Write a Chrome trace-event JSON file with the serving spans \
             and the merged device timeline.")
  in
  let metrics =
    Arg.(
      value
      & opt ~vopt:(Some "served_metrics.json") (some string) None
      & info [ "metrics" ] ~docv:"PATH"
          ~doc:"Dump the metrics registry (JSON when the path ends in .json).")
  in
  let term =
    Term.(
      const main $ streams $ rate $ duration $ policy $ batch_max $ window_us
      $ workers $ capacity $ deadline_ms $ slo_ms $ slow_dump $ pipeline
      $ frame $ opt $ domains $ devices $ device_profile $ trace
      $ metrics)
  in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "served"
             ~doc:"Streaming frame-serving engine over the GPU pipelines")
          term))
