(* perf_lint_all -- the static/dynamic cross-check and perf-lint sweep
   over every kernel the repo's example programs produce.

   For each built-in kernel of both pipelines (the six SAC programs and
   the MDE downscaler chain, each under --opt off, fuse and auto, so
   tiled and interchanged kernels are covered) this asserts that
   {!Gpu.Kir.static_cost} reproduces the execution-counted
   {!Gpu.Kir.profile_threads} profile exactly — reads/writes/ops per
   thread, access class and burst length, profiled over non-zero
   buffers that profiling must leave unchanged — prints the static
   per-buffer and divergence summaries, and then runs
   {!Analysis.Perf_lint} over the plan, requiring the shipped kernels
   to come out free of error-severity perf findings.

   Exits non-zero on any disagreement or error finding.  The
   `perf-lint` alias (attached to runtest) also diffs the printed
   summaries against perf_lint.expected, so a drift in the summaries
   fails too; after an intended change, `dune promote` updates it. *)

let rows = 72

let cols = 64

let failed = ref false

let classes = function `Row -> "row" | `Column -> "column" | `Gather -> "gather"

let buffer_args kernel ~lengths =
  List.map
    (fun (p : Gpu.Kir.param) ->
      match p.Gpu.Kir.kind with
      | Gpu.Kir.Scalar ->
          failwith
            (Printf.sprintf "%s: unexpected scalar param %s"
               kernel.Gpu.Kir.kname p.Gpu.Kir.pname)
      | _ ->
          let len =
            match List.assoc_opt p.Gpu.Kir.pname lengths with
            | Some l -> l
            | None ->
                failwith
                  (Printf.sprintf "%s: no length for buffer %s"
                     kernel.Gpu.Kir.kname p.Gpu.Kir.pname)
          in
          ( p.Gpu.Kir.pname,
            Gpu.Kir.Buffer_arg
              { Gpu.Buffer.id = 0; name = p.Gpu.Kir.pname; len;
                data = Array.init len (fun i -> (i * 37 mod 101) - 50) } ))
    kernel.Gpu.Kir.params

let buffer_data args =
  List.map
    (function
      | _, Gpu.Kir.Buffer_arg b -> Array.copy b.Gpu.Buffer.data
      | _, Gpu.Kir.Scalar_arg _ -> [||])
    args

let check_agreement name kernel ~grid ~lengths =
  let args = buffer_args kernel ~lengths in
  let before = buffer_data args in
  let dynamic = Gpu.Kir.profile_threads kernel ~args ~grid in
  if buffer_data args <> before then begin
    Printf.printf "%-40s %-16s profiling changed an argument buffer\n" name
      kernel.Gpu.Kir.kname;
    failed := true
  end;
  match Gpu.Kir.static_cost kernel ~grid with
  | Error m ->
      Printf.printf "%-40s %-16s static derivation failed: %s\n" name
        kernel.Gpu.Kir.kname m;
      failed := true
  | Ok st ->
      let eq what a b =
        if not (Float.equal a b) then begin
          Printf.printf "%-40s %-16s %s: static %g <> executed %g\n" name
            kernel.Gpu.Kir.kname what a b;
          failed := true
        end
      in
      eq "reads/thread" st.Gpu.Kir.reads_per_thread dynamic.Gpu.Kir.reads_per_thread;
      eq "writes/thread" st.Gpu.Kir.writes_per_thread dynamic.Gpu.Kir.writes_per_thread;
      eq "ops/thread" st.Gpu.Kir.ops_per_thread dynamic.Gpu.Kir.ops_per_thread;
      eq "read burst" st.Gpu.Kir.read_burst dynamic.Gpu.Kir.read_burst;
      if st.Gpu.Kir.access <> dynamic.Gpu.Kir.access then begin
        Printf.printf "%-40s %-16s access class: static %s <> executed %s\n"
          name kernel.Gpu.Kir.kname
          (classes st.Gpu.Kir.access)
          (classes dynamic.Gpu.Kir.access);
        failed := true
      end;
      (match st.Gpu.Kir.summary with
      | None ->
          Printf.printf "%-40s %-16s static cost carries no summary\n" name
            kernel.Gpu.Kir.kname;
          failed := true
      | Some s ->
          List.iter
            (fun (b : Gpu.Kir.buffer_access) ->
              Printf.printf
                "%-40s %-16s %-8s %-7s burst %5.2f eff %4.2f overlap %4.2f \
                 bank %2d\n"
                name kernel.Gpu.Kir.kname b.Gpu.Kir.ba_buffer
                (classes b.Gpu.Kir.ba_class)
                b.Gpu.Kir.ba_burst b.Gpu.Kir.ba_efficiency
                b.Gpu.Kir.ba_overlap b.Gpu.Kir.ba_bank_conflict)
            s.Gpu.Kir.as_buffers;
          if s.Gpu.Kir.as_divergent_branches > 0 then
            Printf.printf
              "%-40s %-16s %d divergent branch(es), %.2f ops in regions\n"
              name kernel.Gpu.Kir.kname s.Gpu.Kir.as_divergent_branches
              s.Gpu.Kir.as_divergent_ops)

let check_findings name findings =
  List.iter
    (fun f -> Format.printf "  %a@." Analysis.Finding.pp_long f)
    findings;
  if Analysis.Finding.errors findings > 0 then begin
    Printf.printf "%-40s error-severity perf finding on shipped kernel\n" name;
    failed := true
  end

let sac_program opt name source =
  match Sac_cuda.Compile.plan_of_source ~opt source ~entry:"main" with
  | plan, _ ->
      List.iter
        (function
          | Sac_cuda.Plan.Device_withloop { swith; kernels; _ } ->
              let out_shape =
                Ndarray.Shape.concat swith.Sac.Scalarize.frame
                  swith.Sac.Scalarize.cell_shape
              in
              let lengths =
                Sac_cuda.Verify.buffer_lengths swith
                  ~out_len:(Ndarray.Shape.size out_shape)
              in
              List.iter
                (fun (k, grid) -> check_agreement name k ~grid ~lengths)
                kernels
          | _ -> ())
        plan.Sac_cuda.Plan.items;
      check_findings name (Sac_cuda.Verify.perf_check plan)
  | exception Sac_cuda.Compile.Compile_error m ->
      Printf.printf "%-40s failed to compile: %s\n" name m;
      failed := true

let sweep opt suffix =
  List.iter
    (fun (name, src) -> sac_program opt (name ^ suffix) (src ~rows ~cols))
    [
      ("sac/horizontal", Sac.Programs.horizontal ~generic:false);
      ("sac/horizontal-generic", Sac.Programs.horizontal ~generic:true);
      ("sac/vertical", Sac.Programs.vertical ~generic:false);
      ("sac/vertical-generic", Sac.Programs.vertical ~generic:true);
      ("sac/downscaler", Sac.Programs.downscaler ~generic:false);
      ("sac/downscaler-generic", Sac.Programs.downscaler ~generic:true);
    ];
  match Mde.Chain.transform ~opt (Mde.Chain.downscaler_model ~rows ~cols) with
  | Ok (gen, _) ->
      let name = "mde/downscaler-chain" ^ suffix in
      let tasks = gen.Mde.Codegen.kernel_tasks in
      List.iter
        (fun (kt : Mde.Codegen.kernel_task) ->
          let lengths =
            List.map
              (fun (n, shape) ->
                (Mde.Codegen.sanitize n, Ndarray.Shape.size shape))
              (kt.Mde.Codegen.input_ports @ kt.Mde.Codegen.output_ports)
          in
          check_agreement name kt.Mde.Codegen.kernel ~grid:kt.Mde.Codegen.grid
            ~lengths)
        tasks;
      check_findings name (Mde.Verify.perf_check tasks)
  | Error m ->
      Printf.printf "%-40s chain failed: %s\n"
        ("mde/downscaler-chain" ^ suffix) m;
      failed := true

let () =
  (* The analyzers run once, explicitly, below. *)
  Analysis.Config.set_mode Analysis.Config.Off;
  Analysis.Config.set_perf_mode Analysis.Config.Off;
  sweep Optimizer.Mode.Off "";
  sweep Optimizer.Mode.Fuse " (fused)";
  sweep Optimizer.Mode.Auto " (auto)";
  if !failed then exit 1
