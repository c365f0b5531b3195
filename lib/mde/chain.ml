type trace = { pass : string; detail : string }

let transform ?(opt = Optimizer.Mode.default ()) ?device model =
  let ( let* ) = Result.bind in
  let trace = ref [] in
  let record pass detail = trace := { pass; detail } :: !trace in
  let* () =
    match
      Obs.Tracer.with_span ~cat:"mde" "mde.validate" (fun () ->
          Arrayol.Validate.check ~loc:"mde" model.Marte.application)
    with
    | [] ->
        record "uml2marte: application validation" "ok";
        Ok ()
    | issues ->
        Error
          ("application validation failed: "
          ^ String.concat "; "
              (List.map
                 (Format.asprintf "%a" Arrayol.Validate.pp_issue)
                 issues))
  in
  let model =
    Obs.Tracer.with_span ~cat:"mde" "mde.allocate" (fun () ->
        Marte.allocate_data_parallel model)
  in
  record "marte2deployed: allocation"
    (Printf.sprintf "%d parts allocated" (List.length model.Marte.allocations));
  let* schedule =
    try
      Ok
        (Obs.Tracer.with_span ~cat:"mde" "mde.schedule" (fun () ->
             Arrayol.Schedule.compute model.Marte.application))
    with Invalid_argument m -> Error m
  in
  record "deployed2scheduled: scheduling"
    (Printf.sprintf "%d levels, parallelism %d" (List.length schedule)
       (Arrayol.Schedule.total_parallelism schedule));
  let* generated =
    try
      Ok
        (Obs.Tracer.with_span ~cat:"mde" "mde.codegen" (fun () ->
             Codegen.generate model))
    with Codegen.Codegen_error m -> Error m
  in
  record "scheduled2opencl: code generation"
    (Printf.sprintf "%d kernels, %d bytes of OpenCL"
       (List.length generated.Codegen.kernel_tasks)
       (String.length generated.Codegen.cl_source));
  let generated =
    match opt with
    | Optimizer.Mode.Off -> generated
    | Optimizer.Mode.Fuse ->
        let g, fstats =
          Obs.Tracer.with_span ~cat:"mde" "mde.fuse" (fun () ->
              Fuse_chain.optimize generated)
        in
        Gpu.Fuse.record fstats;
        record "opencl2fused: kernel fusion"
          (Printf.sprintf
             "%d kernel(s) inlined, %d launch(es), %d buffer(s), %d B of \
              traffic saved"
             fstats.Gpu.Fuse.kernels_eliminated fstats.Gpu.Fuse.launches_saved
             fstats.Gpu.Fuse.buffers_eliminated fstats.Gpu.Fuse.bytes_saved);
        g
    | Optimizer.Mode.Auto ->
        let g, fstats, rules = Autotune.tune ?device generated in
        if fstats.Gpu.Fuse.kernels_eliminated > 0 then Gpu.Fuse.record fstats;
        record "opencl2tuned: plan autotuning"
          (if rules = [] then "generated program already best under model"
           else
             Printf.sprintf "%d rewrite(s) applied: %s" (List.length rules)
               (String.concat ", " rules));
        g
  in
  let* () =
    match
      Obs.Tracer.with_span ~cat:"mde" "mde.verify" (fun () ->
          Verify.gate_generated ~file:"mde:opencl2verified" generated)
    with
    | Ok () ->
        record "opencl2verified: kernel verification"
          (Printf.sprintf "%d kernels checked (%s mode)"
             (List.length generated.Codegen.kernel_tasks)
             (Analysis.Config.mode_to_string (Analysis.Config.mode ())));
        Ok ()
    | Error m -> Error m
  in
  let* () =
    match
      Obs.Tracer.with_span ~cat:"mde" "mde.perf_lint" (fun () ->
          Verify.perf_gate ~file:"mde:opencl2perflint"
            generated.Codegen.kernel_tasks)
    with
    | Ok () ->
        (match Analysis.Config.perf_mode () with
        | Analysis.Config.Off -> ()
        | mode ->
            record "opencl2perflint: performance lint"
              (Printf.sprintf "%d kernels linted (%s mode)"
                 (List.length generated.Codegen.kernel_tasks)
                 (Analysis.Config.mode_to_string mode)));
        Ok ()
    | Error m -> Error m
  in
  Ok (generated, List.rev !trace)

let transform_exn ?opt ?device model =
  match transform ?opt ?device model with
  | Ok (g, _) -> g
  | Error m -> invalid_arg ("Mde.Chain.transform: " ^ m)

exception Run_error = Exec.Run_error

let run ?label_of ?liveness ctx gen ~inputs =
  Obs.Tracer.with_span ~cat:"mde" "mde.run" @@ fun () ->
  Exec.run ?label_of ?liveness ctx gen ~inputs

let downscaler_label = function
  | "HorizontalFilter" -> "H. Filter"
  | "VerticalFilter" -> "V. Filter"
  | other -> other

let downscaler_model ~rows ~cols =
  Marte.allocate_data_parallel
    (Marte.make ~name:"downscaler"
       (Arrayol.Downscaler_model.frame ~rows ~cols))
