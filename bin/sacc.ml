(* sacc -- the SAC compiler driver.

   Parses a SAC program (from a file, or one of the built-in downscaler
   variants), runs the optimisation pipeline and either prints the
   optimised SAC, the compiled plan, or the generated CUDA C. *)

open Cmdliner

type emit = Ast | Optimized | Plan | Cuda | Opencl_src | Metal_src | Run | Lint

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let builtin_source name rows cols =
  match name with
  | "downscaler" -> Some (Sac.Programs.downscaler ~generic:false ~rows ~cols)
  | "downscaler-generic" ->
      Some (Sac.Programs.downscaler ~generic:true ~rows ~cols)
  | "horizontal" -> Some (Sac.Programs.horizontal ~generic:false ~rows ~cols)
  | "horizontal-generic" ->
      Some (Sac.Programs.horizontal ~generic:true ~rows ~cols)
  | "vertical" -> Some (Sac.Programs.vertical ~generic:false ~rows ~cols)
  | "vertical-generic" ->
      Some (Sac.Programs.vertical ~generic:true ~rows ~cols)
  | _ -> None

let main input builtin from_model generic (rows, cols) emit entry verify
    perf_lint opt trace metrics =
  Analysis.Config.set_mode verify;
  Analysis.Config.set_perf_mode perf_lint;
  Optimizer.Mode.set_default opt;
  if trace <> None then Obs.Tracer.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Option.iter Gpu.Trace_export.write trace;
      Option.iter Obs.Metrics.write_file metrics)
  @@ fun () ->
  let lint_code = ref 0 in
  try
    let source =
      match (input, builtin, from_model) with
      | Some path, _, _ -> read_file path
      | None, Some name, _ -> (
          match builtin_source name rows cols with
          | Some src -> src
          | None ->
              Printf.eprintf
                "unknown built-in %s (try downscaler, horizontal, \
                 vertical, *-generic)\n"
                name;
              exit 2)
      | None, None, Some path ->
          (* ArrayOL model -> SAC, the Section VI translation automated. *)
          let model = Mde.Model_io.load path in
          Bridge.Arrayol_to_sac.translate ~generic
            model.Mde.Marte.application
      | None, None, None ->
          Printf.eprintf "either FILE, --builtin or --from-model is required\n";
          exit 2
    in
    (match emit with
    | Ast ->
        print_endline (Sac.Ast.program_to_string (Sac.Parser.program source))
    | Optimized ->
        let fd, report = Sac.Pipeline.optimize_source source ~entry in
        Printf.printf
          "/* WLF: %d fold(s); %d with-loop(s) before, %d after */\n"
          report.Sac.Pipeline.wlf_rounds report.Sac.Pipeline.withloops_before
          report.Sac.Pipeline.withloops_after;
        print_endline (Sac.Ast.program_to_string [ fd ])
    | Plan ->
        let plan, report = Sac_cuda.Compile.plan_of_source source ~entry in
        Printf.printf "/* WLF: %d fold(s) */\n" report.Sac.Pipeline.wlf_rounds;
        Format.printf "%a@." Sac_cuda.Plan.pp plan
    | Cuda ->
        let plan, _ = Sac_cuda.Compile.plan_of_source source ~entry in
        print_string (Sac_cuda.Emit_cu.source ~name:"sac_program" plan)
    | Opencl_src ->
        let plan, _ = Sac_cuda.Compile.plan_of_source source ~entry in
        let src = Sac_opencl.Backend.sources ~name:"sac_program" plan in
        print_string src.Sac_opencl.Backend.cl;
        print_newline ();
        print_string src.Sac_opencl.Backend.host
    | Metal_src ->
        let plan, _ = Sac_cuda.Compile.plan_of_source source ~entry in
        let src = Sac_metal.Backend.sources ~name:"sac_program" plan in
        print_string src.Sac_metal.Backend.metal;
        print_newline ();
        print_string src.Sac_metal.Backend.host
    | Lint ->
        (* Front-end issues first; the plan-level analyzers need a
           program that at least compiles. *)
        let issues = Sac.Check.program (Sac.Parser.program source) in
        List.iter
          (fun i -> Format.printf "%a@." Sac.Check.pp_issue i)
          issues;
        if issues <> [] then lint_code := 1
        else begin
          (* The compile gates are off here so every kernel is analyzed
             exactly once, below, whatever --verify/--perf-lint say. *)
          Analysis.Config.set_mode Analysis.Config.Off;
          Analysis.Config.set_perf_mode Analysis.Config.Off;
          let plan, _ = Sac_cuda.Compile.plan_of_source source ~entry in
          let findings = Sac_cuda.Verify.check plan in
          List.iter
            (fun f -> Format.printf "%a@." Analysis.Finding.pp_long f)
            findings;
          let perf = Sac_cuda.Verify.perf_check plan in
          List.iter
            (fun f -> Format.printf "%a@." Analysis.Finding.pp_long f)
            perf;
          Printf.printf
            "%d kernel(s) checked: %d finding(s) (%d error(s), %d \
             warning(s), %d note(s)); %d perf lint(s) (%d error(s))\n"
            (Sac_cuda.Plan.kernel_count plan)
            (List.length findings)
            (Analysis.Finding.errors findings)
            (Analysis.Finding.warnings findings)
            (Analysis.Finding.notes findings)
            (List.length perf)
            (Analysis.Finding.errors perf);
          if Analysis.Finding.errors findings > 0 then lint_code := 1;
          if perf_lint = Analysis.Config.Strict
             && Analysis.Finding.errors perf > 0
          then lint_code := 1
        end
    | Run ->
        let plan, _ = Sac_cuda.Compile.plan_of_source source ~entry in
        let ctx = Gpu.Context.create () in
        let frame =
          match plan.Sac_cuda.Plan.params with
          | [ (name, shape) ] ->
              (* Axis k weighs k + 1: (i + 2j) mod 251 at rank 2. *)
              ( name,
                Ndarray.Tensor.init shape (fun idx ->
                    let v = ref 0 in
                    Array.iteri (fun k i -> v := !v + ((k + 1) * i)) idx;
                    !v mod 251) )
          | _ ->
              Printf.eprintf "--emit run expects a single-array-input program\n";
              exit 2
        in
        let outcome =
          Sac_cuda.Exec.run ctx plan
            ~liveness:(Optimizer.Mode.liveness (Optimizer.Mode.default ()))
            ~args:[ frame ]
        in
        Printf.printf "executed: %d kernel launches, result shape %s\n"
          outcome.Sac_cuda.Exec.kernel_launches
          (Ndarray.Shape.to_string
             (Ndarray.Tensor.shape outcome.Sac_cuda.Exec.result));
        let timeline = Gpu.Context.timeline ctx in
        Gpu.Trace_export.register ~name:"sacc run" timeline;
        print_string
          (Gpu.Profiler.to_string ~title:"Simulated device profile:"
             (Gpu.Profiler.rows timeline)));
    !lint_code
  with
  | Sac.Lexer.Lex_error m | Sac.Parser.Parse_error m ->
      Printf.eprintf "syntax error: %s\n" m;
      1
  | Sac.Ast.Sac_error m | Sac.Value.Value_error m ->
      Printf.eprintf "error: %s\n" m;
      1
  | Sac_cuda.Compile.Compile_error m ->
      Printf.eprintf "backend error: %s\n" m;
      1
  | Bridge.Arrayol_to_sac.Unsupported m ->
      Printf.eprintf "model translation error: %s\n" m;
      1
  | Mde.Model_io.Format_error m | Mde.Sexp.Parse_error m ->
      Printf.eprintf "model file error: %s\n" m;
      1

let () =
  let input =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"SAC source file.")
  in
  let builtin =
    Arg.(
      value
      & opt (some string) None
      & info [ "builtin" ] ~doc:"Use a built-in program instead of a file.")
  in
  let from_model =
    Arg.(
      value
      & opt (some file) None
      & info [ "from-model" ]
          ~doc:"Translate an ArrayOL model file to SAC first (Section VI).")
  in
  let generic =
    Arg.(
      value & flag
      & info [ "generic" ]
          ~doc:"With --from-model: use the generic (for-loop) output tiler.")
  in
  let frame = Frame_size.term ~rows:1080 ~cols:1920 in
  let emit =
    Arg.(
      value
      & opt
          (enum
             [ ("ast", Ast); ("optimized", Optimized); ("plan", Plan);
               ("cuda", Cuda); ("opencl", Opencl_src); ("metal", Metal_src);
               ("run", Run); ("lint", Lint) ])
          Cuda
      & info [ "emit" ]
          ~doc:
            "What to produce: ast, optimized, plan, cuda, opencl, metal, \
             run, or lint (static-analysis findings; non-zero exit on \
             errors).")
  in
  let entry = Arg.(value & opt string "main" & info [ "entry" ]) in
  let verify =
    Arg.(
      value
      & opt
          (enum
             [ ("off", Analysis.Config.Off); ("lint", Analysis.Config.Lint);
               ("strict", Analysis.Config.Strict) ])
          Analysis.Config.Lint
      & info [ "verify" ]
          ~doc:
            "Verification gate applied while compiling plans: off, \
             lint (record findings as metrics/log entries) or strict \
             (abort compilation on error findings).")
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
             analysis (coalescing, warp divergence, redundant reads): \
             off, lint (record ranked findings as metrics/log entries, \
             the default) or strict (abort compilation on \
             error-severity lints such as uncoalesced hot-buffer \
             access).")
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
            "Plan optimisation: $(b,off) keeps the one-kernel-per-generator \
             plan, $(b,fuse) inlines provably-safe producer kernels into \
             their single consumer to a fixpoint (fewer launches, no \
             intermediate buffer) and frees device buffers after their \
             last use, $(b,auto) (default) searches fuse / fission / \
             interchange / tile rewrites under the device cost model and \
             keeps the best verified plan (memoised per shape).")
  in
  let trace =
    Arg.(
      value
      & opt ~vopt:(Some "trace.json") (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Write a Chrome trace-event JSON file with compilation and \
             (for --emit run) device-timeline tracks.")
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
      const main $ input $ builtin $ from_model $ generic $ frame
      $ emit $ entry $ verify $ perf_lint $ opt $ trace $ metrics)
  in
  let info =
    Cmd.info "sacc" ~doc:"SAC to CUDA compiler (simulated device)"
  in
  exit (Cmd.eval' (Cmd.v info term))
