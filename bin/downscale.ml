(* downscale -- the end-to-end application: synthetic video in, scaled
   frames out, through a selectable pipeline (golden reference, the
   SAC->CUDA route, or the Gaspard2->OpenCL route), with the device
   profile printed afterwards.  This is the "downscaler application"
   of the paper's Section III as a runnable tool.

   Frames are independent, so they are processed in batches on the
   shared domain pool: each frame runs on its own device context (the
   compiled plan and kernel preparations are shared process-wide), and
   the per-frame timelines are merged in frame order, so the printed
   profile and the worst-PSNR figure are identical to a sequential
   run.  PPM files are written sequentially after each batch. *)

open Cmdliner

type pipeline = Reference | Sac_cuda_pipe | Gaspard

(* Each device pipeline maps a frame to the scaled frame on the frame's
   private device context. *)
let frame_via_sac rows cols =
  let src = Sac.Programs.downscaler ~generic:false ~rows ~cols in
  let plan, _ =
    Sac_cuda.Compile.plan_of_source
      ~label_of:(Sac.Programs.downscaler_labels ())
      src ~entry:"main"
  in
  fun ctx frame ->
    Video.Frame.map_planes
      (fun _ plane ->
        (Sac_cuda.Exec.run ctx plan
           ~liveness:(Optimizer.Mode.liveness (Optimizer.Mode.default ()))
           ~args:[ ("frame", plane) ])
          .Sac_cuda.Exec.result)
      frame

let frame_via_gaspard rows cols =
  let gen = Mde.Chain.transform_exn (Mde.Chain.downscaler_model ~rows ~cols) in
  fun ctx frame ->
    let outs =
      Mde.Chain.run ctx gen ~label_of:Mde.Chain.downscaler_label
        ~liveness:(Optimizer.Mode.liveness (Optimizer.Mode.default ()))
        ~inputs:
          [
            ("r_in", Video.Frame.plane frame Video.Frame.R);
            ("g_in", Video.Frame.plane frame Video.Frame.G);
            ("b_in", Video.Frame.plane frame Video.Frame.B);
          ]
    in
    {
      Video.Frame.r = List.assoc "r_out" outs;
      g = List.assoc "g_out" outs;
      b = List.assoc "b_out" outs;
    }

(* A device pipeline run on the scheduler's chosen ordinal of the
   shared topology: the scaled frame plus the events its private context
   recorded. *)
let on_device via topology ordinal frame =
  let ctx = Gpu.Context.create ~ordinal ~topology () in
  let scaled = via ctx frame in
  (scaled, Gpu.Timeline.events (Gpu.Context.timeline ctx))

let apply_domains = function
  | None -> ()
  | Some n when n <= 0 ->
      Printf.eprintf
        "downscale: --domains must be a positive integer (got %d)\n" n;
      exit 2
  | Some n ->
      Gpu.Pool.set_default_domains n;
      Gpu.Context.set_default_mode
        (if n <= 1 then Gpu.Context.Sequential else Gpu.Context.Parallel n)

let main (rows, cols) frames pipeline out_dir domains devices device_profile opt
    perf_lint trace metrics =
  if devices < 1 then begin
    Printf.eprintf "downscale: --devices must be positive\n";
    exit 2
  end;
  apply_domains domains;
  Optimizer.Mode.set_default opt;
  Analysis.Config.set_perf_mode perf_lint;
  if trace <> None then Obs.Tracer.set_enabled true;
  let fmt = { Video.Format.name = "synthetic"; rows; cols } in
  (* Frames shard across the device set through the residency-aware
     scheduler; placement happens sequentially at batch-closure
     creation, so it is deterministic whatever --domains says. *)
  let topology = Gpu.Topology.uniform ~devices device_profile in
  let run =
    match pipeline with
    | Reference -> fun _ f -> (Video.Downscaler.frame f, [])
    | Sac_cuda_pipe -> on_device (frame_via_sac rows cols) topology
    | Gaspard -> on_device (frame_via_gaspard rows cols) topology
  in
  let sched = Gpu.Sched.create topology in
  let frame_us =
    Gpu.Topology.transfer_time_us topology ~src:Gpu.Topology.Host
      ~dst:(Gpu.Topology.Dev 0)
      ~bytes:(3 * 4 * rows * cols)
  in
  let place n =
    (Gpu.Sched.place sched
       ~name:(Printf.sprintf "frame %d" n)
       ~us_of:(fun _ -> frame_us))
      .Gpu.Sched.ordinal
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let pool = Gpu.Pool.get () in
  (* Batches bound how many decoded frames are alive at once. *)
  let batch = max 1 (4 * Gpu.Pool.size pool) in
  let timeline = Gpu.Timeline.create () in
  let device_us = Array.make devices 0.0 in
  let device_frames = Array.make devices 0 in
  let worst_psnr = ref infinity in
  let next = ref 0 in
  while !next < frames do
    let count = min batch (frames - !next) in
    let results =
      Gpu.Pool.map_list pool
        (List.init count (fun i ->
             let n = !next + i in
             let ordinal = place n in
             fun () ->
               let frame = Video.Framegen.frame fmt n in
               let scaled, events = run ordinal frame in
               let reference = Video.Downscaler.frame frame in
               ( n,
                 ordinal,
                 scaled,
                 Video.Quality.frame_psnr scaled reference,
                 events )))
    in
    List.iter
      (fun (n, ordinal, scaled, psnr, events) ->
        worst_psnr := Float.min !worst_psnr psnr;
        device_frames.(ordinal) <- device_frames.(ordinal) + 1;
        List.iter
          (fun (e : Gpu.Timeline.event) ->
            device_us.(ordinal) <- device_us.(ordinal) +. e.Gpu.Timeline.us)
          events;
        List.iter (Gpu.Timeline.record timeline) events;
        let path =
          Filename.concat out_dir (Printf.sprintf "frame_%03d.ppm" n)
        in
        Video.Frame_io.write_ppm path scaled;
        Printf.printf "frame %3d -> %s (%dx%d)\n%!" n path
          (Video.Format.downscaled fmt).Video.Format.rows
          (Video.Format.downscaled fmt).Video.Format.cols)
      results;
    next := !next + count
  done;
  Printf.printf "\nworst PSNR vs reference: %s\n"
    (if !worst_psnr = infinity then "inf (bit-exact)"
     else Printf.sprintf "%.1f dB" !worst_psnr);
  if devices > 1 && pipeline <> Reference then begin
    let total = Array.fold_left ( +. ) 0.0 device_us in
    let makespan = Array.fold_left Float.max 0.0 device_us in
    Printf.printf "\ndevice sharding: %d x %s\n" devices
      device_profile.Gpu.Device.name;
    Array.iteri
      (fun i us ->
        Printf.printf "  dev%d: %d frame(s), %.1f us modelled\n" i
          device_frames.(i) us)
      device_us;
    Printf.printf "  makespan %.1f us vs single-device %.1f us (%.2fx)\n"
      makespan total
      (if makespan > 0.0 then total /. makespan else 1.0)
  end;
  (match Gpu.Timeline.events timeline with
  | [] -> ()
  | _ ->
      print_string
        (Gpu.Profiler.to_string ~title:"\nDevice profile:"
           (Gpu.Profiler.rows timeline)));
  Gpu.Trace_export.register ~name:"downscale (merged frames)" timeline;
  Option.iter Gpu.Trace_export.write trace;
  Option.iter Obs.Metrics.write_file metrics;
  0

let () =
  let frame = Frame_size.term ~rows:288 ~cols:352 in
  let frames = Arg.(value & opt int 4 & info [ "frames" ]) in
  let pipeline =
    Arg.(
      value
      & opt
          (enum
             [ ("reference", Reference); ("sac", Sac_cuda_pipe);
               ("gaspard", Gaspard) ])
          Sac_cuda_pipe
      & info [ "pipeline" ] ~doc:"reference, sac or gaspard.")
  in
  let out = Arg.(value & opt string "frames" & info [ "o"; "output" ]) in
  let devices =
    Arg.(
      value
      & opt int 1
      & info [ "devices" ]
          ~doc:
            "Simulated devices to shard frames across (scheduler-placed; \
             output is bit-identical to a single-device run).")
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
             (default), $(b,tesla_c1060) or $(b,ampere).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ]
          ~doc:
            "OCaml domains for frame-level parallelism (must be positive; \
             1 forces a sequential run, omit to keep the machine \
             default).")
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
          Optimizer.Mode.Auto
      & info [ "opt" ]
          ~doc:
            "Plan optimisation in the sac and gaspard pipelines: \
             $(b,off) disables rewrites, $(b,fuse) applies the fixed \
             fusion pass (with device-buffer liveness reuse), and \
             $(b,auto) (default) autotunes the plan under the device \
             cost model (memoised per shape).")
  in
  let perf_lint =
    Arg.(
      value
      & opt
          (enum
             [ ("off", Analysis.Config.Off); ("lint", Analysis.Config.Lint);
               ("strict", Analysis.Config.Strict) ])
          Analysis.Config.Lint
      & info [ "perf-lint" ]
          ~doc:
            "Performance-lint gate while compiling the pipeline's \
             plan: off, lint (record ranked coalescing/divergence \
             findings as metrics, the default) or strict (fail on \
             error-severity lints).")
  in
  let trace =
    Arg.(
      value
      & opt ~vopt:(Some "trace.json") (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Write a Chrome trace-event JSON file (Perfetto-loadable) \
             with the merged device timeline and host spans.")
  in
  let metrics =
    Arg.(
      value
      & opt ~vopt:(Some "metrics.txt") (some string) None
      & info [ "metrics" ] ~docv:"PATH"
          ~doc:
            "Dump the metrics registry to $(docv) (JSON when the path \
             ends in .json).")
  in
  let term =
    Term.(
      const main $ frame $ frames $ pipeline $ out $ domains $ devices
      $ device_profile $ opt $ perf_lint $ trace $ metrics)
  in
  exit
    (Cmd.eval'
       (Cmd.v (Cmd.info "downscale" ~doc:"H.263 video downscaler") term))
