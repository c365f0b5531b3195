open Ndarray

let rows = 18

let cols = 16

let plane_of n =
  Video.Frame.plane
    (Video.Framegen.frame { Video.Format.name = "s"; rows; cols } n)
    Video.Frame.R

let tensor_eq = Tensor.equal Int.equal

let plan_of ?opt ~generic () =
  fst
    (Sac_cuda.Compile.plan_of_source ?opt
       (Sac.Programs.downscaler ~generic ~rows ~cols)
       ~entry:"main")

let run_opencl plan plane =
  let ctx = Opencl.Runtime.create_context () in
  let outcome = Sac_opencl.Backend.run ctx plan ~args:[ ("frame", plane) ] in
  (ctx, outcome)

let test_opencl_matches_reference () =
  let plan = plan_of ~generic:false () in
  let plane = plane_of 0 in
  let _, outcome = run_opencl plan plane in
  Alcotest.(check bool) "bit-exact vs reference" true
    (tensor_eq outcome.Sac_cuda.Exec.result (Video.Downscaler.plane plane))

let test_opencl_matches_cuda () =
  let plan = plan_of ~generic:false () in
  let plane = plane_of 1 in
  let _, ocl = run_opencl plan plane in
  let rt = Cuda.Runtime.init () in
  let cuda = Sac_cuda.Exec.run rt plan ~args:[ ("frame", plane) ] in
  Alcotest.(check bool) "OpenCL = CUDA" true
    (tensor_eq ocl.Sac_cuda.Exec.result cuda.Sac_cuda.Exec.result);
  Alcotest.(check int) "same launch count" cuda.Sac_cuda.Exec.kernel_launches
    ocl.Sac_cuda.Exec.kernel_launches

let run_metal plan plane =
  let dev = Metal.Runtime.create_system_default_device () in
  let outcome = Sac_metal.Backend.run dev plan ~args:[ ("frame", plane) ] in
  (dev, outcome)

(* The acceptance bar for the third backend: the same compiled plan
   produces bit-identical frames through all three runtime facades,
   with the same number of kernel launches. *)
let test_three_backends_identical () =
  List.iter
    (fun (opt, generic, n) ->
      let plan = plan_of ?opt ~generic () in
      let plane = plane_of n in
      let rt = Cuda.Runtime.init () in
      let cuda = Sac_cuda.Exec.run rt plan ~args:[ ("frame", plane) ] in
      let _, ocl = run_opencl plan plane in
      let _, mtl = run_metal plan plane in
      let reference = Video.Downscaler.plane plane in
      Alcotest.(check bool) "CUDA bit-exact vs reference" true
        (tensor_eq cuda.Sac_cuda.Exec.result reference);
      Alcotest.(check bool) "OpenCL = CUDA" true
        (tensor_eq ocl.Sac_cuda.Exec.result cuda.Sac_cuda.Exec.result);
      Alcotest.(check bool) "Metal = CUDA" true
        (tensor_eq mtl.Sac_cuda.Exec.result cuda.Sac_cuda.Exec.result);
      Alcotest.(check int) "Metal launch count"
        cuda.Sac_cuda.Exec.kernel_launches mtl.Sac_cuda.Exec.kernel_launches)
    [
      (None, false, 5);
      (None, true, 6);
      (Some Optimizer.Mode.Fuse, false, 7);
      (Some Optimizer.Mode.Auto, false, 8);
    ]

let test_metal_events () =
  let plan = plan_of ~generic:false () in
  let dev, _ = run_metal plan (plane_of 9) in
  let events =
    Gpu.Timeline.events
      (Gpu.Context.timeline (Metal.Runtime.gpu_context dev))
  in
  let count kind =
    List.length
      (List.filter
         (fun (e : Gpu.Timeline.event) -> e.Gpu.Timeline.kind = kind)
         events)
  in
  Alcotest.(check int) "12 dispatches" 12 (count Gpu.Timeline.Kernel);
  Alcotest.(check int) "1 blit to device" 1 (count Gpu.Timeline.Memcpy_h2d);
  Alcotest.(check int) "1 blit from device" 1 (count Gpu.Timeline.Memcpy_d2h)

let test_opencl_generic_variant () =
  let plan = plan_of ~generic:true () in
  let plane = plane_of 2 in
  let _, outcome = run_opencl plan plane in
  Alcotest.(check bool) "generic variant bit-exact" true
    (tensor_eq outcome.Sac_cuda.Exec.result (Video.Downscaler.plane plane))

let test_opencl_events () =
  let plan = plan_of ~generic:false () in
  let ctx, _ = run_opencl plan (plane_of 3) in
  let events =
    Gpu.Timeline.events (Gpu.Context.timeline (Opencl.Runtime.gpu_context ctx))
  in
  let count kind =
    List.length
      (List.filter
         (fun (e : Gpu.Timeline.event) -> e.Gpu.Timeline.kind = kind)
         events)
  in
  Alcotest.(check int) "12 kernel enqueues" 12 (count Gpu.Timeline.Kernel);
  Alcotest.(check int) "1 write buffer" 1 (count Gpu.Timeline.Memcpy_h2d);
  Alcotest.(check int) "1 read buffer" 1 (count Gpu.Timeline.Memcpy_d2h)

let test_opencl_fused () =
  let plan = plan_of ~opt:Optimizer.Mode.Fuse ~generic:false () in
  let plane = plane_of 4 in
  let ctx, outcome = run_opencl plan plane in
  Alcotest.(check int) "fused plan: 7 kernels" 7
    (Sac_cuda.Plan.kernel_count plan);
  Alcotest.(check int) "7 launches" 7 outcome.Sac_cuda.Exec.kernel_launches;
  Alcotest.(check bool) "bit-exact vs reference" true
    (tensor_eq outcome.Sac_cuda.Exec.result (Video.Downscaler.plane plane));
  ignore ctx

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = (i + nl <= hl) && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_sources () =
  let plan = plan_of ~generic:false () in
  let src = Sac_opencl.Backend.sources ~name:"downscaler" plan in
  List.iter
    (fun (what, text, needle) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s contains %s" what needle)
        true (contains text needle))
    [
      ("cl", src.Sac_opencl.Backend.cl, "__kernel void");
      ("cl", src.Sac_opencl.Backend.cl, "get_global_id(0)");
      ("host", src.Sac_opencl.Backend.host, "clEnqueueNDRangeKernel");
      ("host", src.Sac_opencl.Backend.host, "clEnqueueWriteBuffer");
      ("host", src.Sac_opencl.Backend.host, "clEnqueueReadBuffer");
      ("makefile", src.Sac_opencl.Backend.makefile, "-lOpenCL");
    ];
  (* 12 kernels in the .cl file. *)
  let count_occurrences s needle =
    let nl = String.length needle in
    let rec go i acc =
      if i + nl > String.length s then acc
      else if String.sub s i nl = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "12 __kernel functions" 12
    (count_occurrences src.Sac_opencl.Backend.cl "__kernel void")

let test_metal_sources () =
  let plan = plan_of ~generic:false () in
  let src = Sac_metal.Backend.sources ~name:"downscaler" plan in
  List.iter
    (fun (what, text, needle) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s contains %s" what needle)
        true (contains text needle))
    [
      ("metal", src.Sac_metal.Backend.metal, "#include <metal_stdlib>");
      ("metal", src.Sac_metal.Backend.metal, "kernel void");
      ("metal", src.Sac_metal.Backend.metal, "[[thread_position_in_grid]]");
      ("metal", src.Sac_metal.Backend.metal, "[[buffer(");
      ("host", src.Sac_metal.Backend.host, "MTL::CreateSystemDefaultDevice");
      ("host", src.Sac_metal.Backend.host, "dispatchThreads");
      ("makefile", src.Sac_metal.Backend.makefile, "-framework Metal");
    ]

(* A rank-4 with-loop: CUDA has only three block axes, so its emitter
   launches such grids 1-D and decomposes the linear thread id, like
   OpenCL and Metal always do.  The generator covers a 2x2x4x4 sub-box
   at an offset and modarray keeps the rest, so both the thread-id
   decomposition and the index offsets are exercised. *)
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

let test_rank4_emits_and_runs () =
  let plan = fst (Sac_cuda.Compile.plan_of_source rank4_source ~entry:"main") in
  let cu = Sac_cuda.Emit_cu.source ~name:"rank4" plan in
  let ocl = Sac_opencl.Backend.sources ~name:"rank4" plan in
  let mtl = Sac_metal.Backend.sources ~name:"rank4" plan in
  List.iter
    (fun (what, text, needle) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s contains %s" what needle)
        true (contains text needle))
    [
      ("cu", cu, "int iGID = blockIdx.x * blockDim.x + threadIdx.x;");
      ("cu", cu, "int gid0 = iGID / 32;");
      ("cu", cu, "dim3 block(256, 1, 1);");
      ("cl", ocl.Sac_opencl.Backend.cl, "int gid0 = iGID / 32;");
      ("metal", mtl.Sac_metal.Backend.metal, "int gid0 = lin / 32;");
    ];
  let shape = [| 2; 3; 4; 5 |] in
  let a = Tensor.init_lin shape (fun i -> (i * 37) mod 101) in
  let expected =
    Tensor.init shape (fun idx ->
        let v = Tensor.get a idx in
        if idx.(1) >= 1 && idx.(3) >= 1 then (v * 2) + idx.(0) - idx.(3) else v)
  in
  let args = [ ("a", a) ] in
  let cuda = Sac_cuda.Exec.run (Cuda.Runtime.init ()) plan ~args in
  let ocl =
    Sac_opencl.Backend.run (Opencl.Runtime.create_context ()) plan ~args
  in
  let mtl =
    Sac_metal.Backend.run (Metal.Runtime.create_system_default_device ()) plan
      ~args
  in
  List.iter
    (fun (what, (o : Sac_cuda.Exec.outcome)) ->
      Alcotest.(check bool) (what ^ " bit-exact") true
        (tensor_eq o.Sac_cuda.Exec.result expected))
    [ ("CUDA", cuda); ("OpenCL", ocl); ("Metal", mtl) ]

let prop_backends_agree =
  QCheck.Test.make
    ~name:"OpenCL and Metal backends = CUDA backend (random frames)" ~count:8
    (QCheck.pair (QCheck.int_range 0 300) QCheck.bool)
    (fun (n, generic) ->
      let plan = plan_of ~generic () in
      let plane = plane_of n in
      let _, ocl = run_opencl plan plane in
      let _, mtl = run_metal plan plane in
      let rt = Cuda.Runtime.init () in
      let cuda = Sac_cuda.Exec.run rt plan ~args:[ ("frame", plane) ] in
      tensor_eq ocl.Sac_cuda.Exec.result cuda.Sac_cuda.Exec.result
      && tensor_eq mtl.Sac_cuda.Exec.result cuda.Sac_cuda.Exec.result)

let () =
  Alcotest.run "sac-opencl"
    [
      ( "run",
        [
          Alcotest.test_case "matches reference" `Quick
            test_opencl_matches_reference;
          Alcotest.test_case "matches CUDA backend" `Quick
            test_opencl_matches_cuda;
          Alcotest.test_case "generic variant" `Quick
            test_opencl_generic_variant;
          Alcotest.test_case "event profile" `Quick test_opencl_events;
          Alcotest.test_case "fused plan" `Quick test_opencl_fused;
          Alcotest.test_case "three backends bit-identical" `Quick
            test_three_backends_identical;
          Alcotest.test_case "metal event profile" `Quick test_metal_events;
        ] );
      ( "emit",
        [
          Alcotest.test_case "sources" `Quick test_sources;
          Alcotest.test_case "metal sources" `Quick test_metal_sources;
          Alcotest.test_case "rank-4 with-loop, all backends" `Quick
            test_rank4_emits_and_runs;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_backends_agree ] );
    ]
