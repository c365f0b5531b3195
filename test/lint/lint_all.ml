(* lint_all -- run the static analyzers over every kernel the repo's
   example programs produce: the six built-in SAC programs (both
   output-tiler variants of each filter and of the full downscaler)
   through the SAC->CUDA compiler, and the Gaspard2 downscaler model
   through the MDE chain, kernels and host programs — each swept both
   without and with the --opt fuse plan optimizer, so fused dispatch
   kernels stay verified.

   Exits non-zero on any error finding, so the `lint` alias (attached
   to runtest) fails when either code generator regresses. *)

let rows = 72

let cols = 64

let failed = ref false

let report name kernels findings =
  if findings = [] then
    Printf.printf "%-32s %2d kernel(s)  ok\n" name kernels
  else begin
    Printf.printf "%-32s %2d kernel(s)  %d finding(s)\n" name kernels
      (List.length findings);
    List.iter
      (fun f -> Format.printf "  %a@." Analysis.Finding.pp_long f)
      findings;
    if Analysis.Finding.errors findings > 0 then failed := true
  end

(* Every linted plan must also print through all three source
   emitters: a plan the analyzers accept but a backend cannot render
   is still a code-generator regression. *)
let emitters_render name plan =
  let check what src =
    if String.length src = 0 then begin
      Printf.printf "%-32s %s emitter produced no source\n" name what;
      failed := true
    end
  in
  check "cuda" (Sac_cuda.Emit_cu.source ~name:"lint_sweep" plan);
  let ocl = Sac_opencl.Backend.sources ~name:"lint_sweep" plan in
  check "opencl" ocl.Sac_opencl.Backend.cl;
  let mtl = Sac_metal.Backend.sources ~name:"lint_sweep" plan in
  check "metal" mtl.Sac_metal.Backend.metal;
  check "metal host" mtl.Sac_metal.Backend.host

let sac_program opt name source =
  match Sac_cuda.Compile.plan_of_source ~opt source ~entry:"main" with
  | plan, _ ->
      report name
        (Sac_cuda.Plan.kernel_count plan)
        (Sac_cuda.Verify.check plan);
      emitters_render name plan
  | exception Sac_cuda.Compile.Compile_error m ->
      Printf.printf "%-32s failed to compile: %s\n" name m;
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
      let tasks = gen.Mde.Codegen.kernel_tasks in
      report
        ("mde/downscaler-chain" ^ suffix)
        (List.length tasks) (Mde.Verify.check_generated gen)
  | Error m ->
      Printf.printf "%-32s chain failed: %s\n" ("mde/downscaler-chain" ^ suffix)
        m;
      failed := true

let () =
  (* The analyzers run once, explicitly, below. *)
  Analysis.Config.set_mode Analysis.Config.Off;
  sweep Optimizer.Mode.Off "";
  sweep Optimizer.Mode.Fuse " (fused)";
  if !failed then exit 1
