(* emit_golden -- a fingerprint of every source file the emitters
   produce, diffed against emit_golden.expected by the `emit-golden`
   alias (attached to runtest).

   Fused sources run to hundreds of kilobytes, so each emitted file is
   one line: program, --opt mode, backend/file, byte count and MD5.
   The sweep covers the lint-sweep SAC programs at 72x64 under --opt
   off and fuse through the CUDA, OpenCL and Metal emitters, the full
   downscaler and the Gaspard2 chain under --opt auto (so interchanged
   kernels print too) and with every kernel coarsened by the tile rule,
   the Gaspard2 chain under off and fuse, and a rank-4 with-loop.  One
   small plan is printed in full through all three backends, so a
   change shows as a readable diff.  After an intended
   change to the emitted text, `dune promote` accepts it. *)

let rows = 72

let cols = 64

let line program opt file src =
  Printf.printf "%s %s %s %d %s\n" program opt file (String.length src)
    (Digest.to_hex (Digest.string src))

let sac_files (plan : Sac_cuda.Plan.t) =
  let name = "golden" in
  let ocl = Sac_opencl.Backend.sources ~name plan in
  let mtl = Sac_metal.Backend.sources ~name plan in
  [
    ("cuda/cu", Sac_cuda.Emit_cu.source ~name plan);
    ("opencl/cl", ocl.Sac_opencl.Backend.cl);
    ("opencl/host", ocl.Sac_opencl.Backend.host);
    ("opencl/Makefile", ocl.Sac_opencl.Backend.makefile);
    ("metal/metal", mtl.Sac_metal.Backend.metal);
    ("metal/host", mtl.Sac_metal.Backend.host);
    ("metal/Makefile", mtl.Sac_metal.Backend.makefile);
  ]

let sac_plan opt source =
  fst (Sac_cuda.Compile.plan_of_source ~opt source ~entry:"main")

let sac_program opt name source =
  List.iter
    (fun (file, src) -> line name (Optimizer.Mode.to_string opt) file src)
    (sac_files (sac_plan opt source))

let tile2 kg = Option.value ~default:kg (Optimizer.Rules.tile ~factor:2 kg)

let gaspard_files opt_name gen =
  List.iter
    (fun (file, src) -> line "mde/downscaler-chain" opt_name file src)
    [
      ("opencl/cl", gen.Mde.Codegen.cl_source);
      ("opencl/host", gen.Mde.Codegen.host_source);
      ("opencl/Makefile", gen.Mde.Codegen.makefile);
    ]

let gaspard_gen opt =
  Mde.Chain.transform_exn ~opt (Mde.Chain.downscaler_model ~rows ~cols)

let gaspard opt = gaspard_files (Optimizer.Mode.to_string opt) (gaspard_gen opt)

(* Every kernel of the unoptimised program coarsened by 2 where the
   rule applies: the "_x2" kernels the search may select. *)
let tiled () =
  let plan =
    sac_plan Optimizer.Mode.Off
      (Sac.Programs.downscaler ~generic:false ~rows ~cols)
  in
  let items =
    List.map
      (function
        | Sac_cuda.Plan.Device_withloop d ->
            Sac_cuda.Plan.Device_withloop
              { d with kernels = List.map tile2 d.kernels }
        | it -> it)
      plan.Sac_cuda.Plan.items
  in
  List.iter
    (fun (file, src) -> line "sac/downscaler" "tile2" file src)
    (sac_files { plan with Sac_cuda.Plan.items });
  let gen = gaspard_gen Optimizer.Mode.Off in
  let tile_task (kt : Mde.Codegen.kernel_task) =
    let kernel, grid = tile2 (kt.Mde.Codegen.kernel, kt.Mde.Codegen.grid) in
    { kt with Mde.Codegen.kernel; grid }
  in
  gaspard_files "tile2"
    (Mde.Codegen.render
       {
         gen with
         Mde.Codegen.kernel_tasks =
           List.map tile_task gen.Mde.Codegen.kernel_tasks;
       })

let programs =
  [
    ("sac/horizontal", Sac.Programs.horizontal ~generic:false);
    ("sac/horizontal-generic", Sac.Programs.horizontal ~generic:true);
    ("sac/vertical", Sac.Programs.vertical ~generic:false);
    ("sac/vertical-generic", Sac.Programs.vertical ~generic:true);
    ("sac/downscaler", Sac.Programs.downscaler ~generic:false);
    ("sac/downscaler-generic", Sac.Programs.downscaler ~generic:true);
  ]

(* A rank-4 with-loop: beyond CUDA's three block axes. *)
let rank4_source =
  {|
int[*] main(int[2,3,4,5] a)
{
    b = with {
        ([0, 1, 0, 1] <= [i, j, k, l] < [2, 3, 4, 5]) : a[[i, j, k, l]] * 2 + i - l;
    } : modarray( a);
    return( b);
}
|}

let full_text () =
  let plan =
    sac_plan Optimizer.Mode.Off
      (Sac.Programs.horizontal ~generic:false ~rows:9 ~cols:8)
  in
  List.iter
    (fun (file, src) ->
      Printf.printf "\n==== sac/horizontal 9x8 off %s ====\n%s" file src)
    (sac_files plan)

let () =
  List.iter
    (fun opt ->
      List.iter
        (fun (name, src) -> sac_program opt name (src ~rows ~cols))
        programs;
      gaspard opt)
    [ Optimizer.Mode.Off; Optimizer.Mode.Fuse ];
  sac_program Optimizer.Mode.Auto "sac/downscaler"
    (Sac.Programs.downscaler ~generic:false ~rows ~cols);
  gaspard Optimizer.Mode.Auto;
  tiled ();
  sac_program Optimizer.Mode.Off "sac/rank4" rank4_source;
  full_text ()
