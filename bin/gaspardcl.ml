(* gaspardcl -- the Gaspard2 OpenCL transformation chain driver.

   Builds the downscaler MARTE model, executes the transformation chain
   (printing each pass, as the Eclipse console would) and writes the
   generated sources (.cl, .cpp, Makefile) to an output directory. *)

open Cmdliner

(* Placement report for --devices N: the residency-aware scheduler
   over the chain's kernel tasks in schedule (level) order, with
   buffer keys resolved through the model connections so a consumer
   placed on its producer's device pays no transfer. *)
let print_placements gen ~devices ~profile =
  let topology = Gpu.Topology.uniform ~devices profile in
  let sched = Gpu.Sched.create topology in
  let key_of = function
    | Arrayol.Model.Boundary b -> b
    | Arrayol.Model.Part (i, p) -> i ^ "." ^ p
  in
  let source_key instance port =
    match
      List.find_opt
        (fun (c : Arrayol.Model.connection) ->
          c.Arrayol.Model.cto = Arrayol.Model.Part (instance, port))
        gen.Mde.Codegen.connections
    with
    | Some c -> key_of c.Arrayol.Model.cfrom
    | None -> instance ^ "." ^ port
  in
  let bytes_of shape = 4 * Array.fold_left ( * ) 1 shape in
  Printf.printf "[sched] %d x %s\n" devices profile.Gpu.Device.name;
  List.iter
    (fun level ->
      List.iter
        (fun instance ->
          match
            List.find_opt
              (fun (t : Mde.Codegen.kernel_task) ->
                t.Mde.Codegen.instance = instance)
              gen.Mde.Codegen.kernel_tasks
          with
          | None -> ()
          | Some t ->
              let moved_bytes =
                List.fold_left
                  (fun acc (_, shape) -> acc + bytes_of shape)
                  0
                  (t.Mde.Codegen.input_ports @ t.Mde.Codegen.output_ports)
              in
              let inputs =
                List.map
                  (fun (p, shape) ->
                    (source_key instance p, bytes_of shape))
                  t.Mde.Codegen.input_ports
              in
              let outputs =
                List.map
                  (fun (p, _) -> instance ^ "." ^ p)
                  t.Mde.Codegen.output_ports
              in
              let us_of o =
                let d = Gpu.Topology.device topology o in
                d.Gpu.Device.kernel_launch_us
                +. (float_of_int moved_bytes
                   /. (d.Gpu.Device.dram_bandwidth_gbs *. 1e3))
              in
              let decision =
                Gpu.Sched.place sched ~inputs ~outputs
                  ~name:(instance ^ ":" ^ t.Mde.Codegen.task_name)
                  ~us_of
              in
              Format.printf "[sched]   %a@." Gpu.Sched.pp_decision decision)
        level)
    gen.Mde.Codegen.levels;
  let makespan = ref 0.0 in
  for o = 0 to devices - 1 do
    makespan := Float.max !makespan (Gpu.Sched.load sched o)
  done;
  Printf.printf "[sched]   makespan estimate %.1f us\n" !makespan

let main (rows, cols) out_dir show_model load save_model lint perf_lint opt
    devices device_profile trace metrics =
  if devices < 1 then begin
    Printf.eprintf "gaspardcl: --devices must be positive\n";
    exit 2
  end;
  Analysis.Config.set_perf_mode perf_lint;
  Optimizer.Mode.set_default opt;
  if trace <> None then Obs.Tracer.set_enabled true;
  let finish code =
    Option.iter Gpu.Trace_export.write trace;
    Option.iter Obs.Metrics.write_file metrics;
    code
  in
  let model =
    match load with
    | Some path -> (
        match Mde.Model_io.load path with
        | m -> Mde.Marte.allocate_data_parallel m
        | exception Mde.Model_io.Format_error m ->
            Printf.eprintf "gaspardcl: %s\n" m;
            exit 1)
    | None -> Mde.Chain.downscaler_model ~rows ~cols
  in
  (match save_model with
  | Some path ->
      Mde.Model_io.save path model;
      Printf.printf "wrote model to %s\n" path
  | None -> ());
  if show_model then Format.printf "%a@.@." Mde.Marte.pp model;
  match Mde.Chain.transform model with
  | Error m ->
      Printf.eprintf "transformation chain failed: %s\n" m;
      finish 1
  | Ok (gen, trace) ->
      List.iter
        (fun (t : Mde.Chain.trace) ->
          Printf.printf "[chain] %-40s %s\n" t.Mde.Chain.pass
            t.Mde.Chain.detail)
        trace;
      if devices > 1 then
        print_placements gen ~devices ~profile:device_profile;
      let lint_failed =
        lint
        &&
        let findings = Mde.Verify.check_generated gen in
        List.iter
          (fun f -> Format.printf "%a@." Analysis.Finding.pp_long f)
          findings;
        let perf = Mde.Verify.perf_check gen.Mde.Codegen.kernel_tasks in
        List.iter
          (fun f -> Format.printf "%a@." Analysis.Finding.pp_long f)
          perf;
        Printf.printf
          "%d kernel(s) checked: %d finding(s) (%d error(s), %d \
           warning(s), %d note(s)); %d perf lint(s) (%d error(s))\n"
          (List.length gen.Mde.Codegen.kernel_tasks)
          (List.length findings)
          (Analysis.Finding.errors findings)
          (Analysis.Finding.warnings findings)
          (Analysis.Finding.notes findings)
          (List.length perf)
          (Analysis.Finding.errors perf);
        Analysis.Finding.errors findings > 0
        || (perf_lint = Analysis.Config.Strict
           && Analysis.Finding.errors perf > 0)
      in
      (match out_dir with
      | None when lint -> ()
      | None ->
          print_newline ();
          print_string gen.Mde.Codegen.cl_source
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let write name contents =
            let path = Filename.concat dir name in
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc contents);
            Printf.printf "wrote %s (%d bytes)\n" path (String.length contents)
          in
          write "downscaler.cl" gen.Mde.Codegen.cl_source;
          write "downscaler.cpp" gen.Mde.Codegen.host_source;
          write "Makefile" gen.Mde.Codegen.makefile);
      finish (if lint_failed then 1 else 0)

let () =
  let frame = Frame_size.term ~rows:1080 ~cols:1920 in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Directory for the generated sources.")
  in
  let show_model =
    Arg.(value & flag & info [ "model" ] ~doc:"Print the MARTE model first.")
  in
  let load =
    Arg.(
      value
      & opt (some file) None
      & info [ "load" ] ~doc:"Run the chain on a model file (see Model_io).")
  in
  let save_model =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-model" ] ~doc:"Serialise the model before running.")
  in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Print the static-analysis findings (kernel bounds, races, \
             exact-cover) for the generated kernels instead of the .cl \
             source; exit non-zero on error findings.")
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
            "Performance-lint gate over the static memory-behaviour \
             analysis of the generated kernels: off, lint (record \
             ranked findings as metrics/log entries, the default) or \
             strict (fail the chain on error-severity lints).")
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
            "Plan optimisation for the chain: $(b,off) keeps one kernel \
             per repetitive task, $(b,fuse) adds the fixed fusion pass \
             (single-consumer kernels inlined, intermediate buffers \
             dropped, per-level buffer release at run time), and \
             $(b,auto) (default) searches fuse / fission / interchange \
             / tile rewrites under the device cost model and keeps the \
             best verified plan (memoised per shape).")
  in
  let devices =
    Arg.(
      value
      & opt int 1
      & info [ "devices" ]
          ~doc:
            "Print a multi-device placement of the chain's kernel tasks \
             (residency-aware scheduler over the link topology) before \
             emitting sources.")
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
  let trace =
    Arg.(
      value
      & opt ~vopt:(Some "trace.json") (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Write a Chrome trace-event JSON file with host spans for \
             each transformation pass.")
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
      const main $ frame $ out $ show_model $ load $ save_model $ lint
      $ perf_lint $ opt $ devices $ device_profile $ trace $ metrics)
  in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "gaspardcl"
             ~doc:"Gaspard2 model-to-OpenCL transformation chain")
          term))
