open Ndarray

let rows = 18

let cols = 16

let tensor_eq = Tensor.equal Int.equal

let frame_of n = Video.Framegen.frame { Video.Format.name = "s"; rows; cols } n

let model () = Mde.Chain.downscaler_model ~rows ~cols

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = (i + nl <= hl) && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---------- MARTE ---------- *)

let test_platform () =
  Alcotest.(check bool) "has a GPU" true
    (List.exists
       (fun (r : Mde.Marte.resource) -> r.Mde.Marte.kind = Mde.Marte.Gpu)
       Mde.Marte.default_platform.Mde.Marte.presources)

let test_allocation () =
  let m = model () in
  (* Six repetitive parts allocated to the GPU. *)
  Alcotest.(check int) "6 allocations" 6 (List.length m.Mde.Marte.allocations);
  List.iter
    (fun inst ->
      match Mde.Marte.allocation_of m inst with
      | Some r -> Alcotest.(check bool) (inst ^ " on GPU") true (r.Mde.Marte.kind = Mde.Marte.Gpu)
      | None -> Alcotest.failf "%s not allocated" inst)
    [ "rhf"; "ghf"; "bhf"; "rvf"; "gvf"; "bvf" ]

let test_stereotypes () =
  let m = model () in
  let st = Mde.Marte.stereotypes_of m "rhf" in
  Alcotest.(check bool) "SwResource" true (List.mem Mde.Marte.Sw_resource st);
  Alcotest.(check bool) "RSM shaped" true (List.mem Mde.Marte.Shaped st);
  Alcotest.(check bool) "allocated" true
    (List.exists (function Mde.Marte.Allocate _ -> true | _ -> false) st);
  let hw = Mde.Marte.stereotypes_of m "gpu0" in
  Alcotest.(check bool) "HwResource" true
    (List.mem (Mde.Marte.Hw_resource Mde.Marte.Gpu) hw)

(* ---------- Transformation chain ---------- *)

let test_transform_trace () =
  match Mde.Chain.transform (model ()) with
  | Error m -> Alcotest.failf "chain failed: %s" m
  | Ok (gen, trace) ->
      Alcotest.(check int) "six passes" 6 (List.length trace);
      Alcotest.(check int) "six kernels" 6
        (List.length gen.Mde.Codegen.kernel_tasks)

let test_transform_rejects_invalid () =
  let bad =
    Mde.Marte.make
      (Arrayol.Model.Elementary
         {
           name = "bad";
           ip = "DoesNotExist";
           inputs = [];
           outputs = [];
         })
  in
  Alcotest.(check bool) "invalid model rejected" true
    (Result.is_error (Mde.Chain.transform bad))

(* ---------- Generated kernels ---------- *)

let test_kernel_structure () =
  let gen = Mde.Chain.transform_exn (model ()) in
  let kt =
    List.find
      (fun kt -> kt.Mde.Codegen.instance = "rhf")
      gen.Mde.Codegen.kernel_tasks
  in
  Alcotest.(check (list int)) "grid = repetition space" [ rows; cols / 8 ]
    (Array.to_list kt.Mde.Codegen.grid);
  (* 11 gathers + 3 tmp lets + 3 stores *)
  Alcotest.(check int) "body size" (11 + 3 + 3)
    (List.length kt.Mde.Codegen.kernel.Gpu.Kir.body)

let test_cl_source_shape () =
  let gen = Mde.Chain.transform_exn (model ()) in
  let src = gen.Mde.Codegen.cl_source in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains src needle))
    [
      "__kernel void rhf_HorizontalFilter";
      "__kernel void bvf_VerticalFilter";
      "get_global_id(0)";
      "% 16";  (* the mod of the tiler formula on the 16-wide test frame *)
    ];
  Alcotest.(check bool) "host program emitted" true
    (contains gen.Mde.Codegen.host_source "clEnqueueNDRangeKernel");
  Alcotest.(check bool) "makefile emitted" true
    (contains gen.Mde.Codegen.makefile "-lOpenCL")

(* ---------- Execution ---------- *)

let run_frame ?liveness gen frame =
  let ctx = Opencl.Runtime.create_context () in
  let outs =
    Mde.Chain.run ?liveness ctx gen
      ~label_of:Mde.Chain.downscaler_label
      ~inputs:
        [
          ("r_in", Video.Frame.plane frame Video.Frame.R);
          ("g_in", Video.Frame.plane frame Video.Frame.G);
          ("b_in", Video.Frame.plane frame Video.Frame.B);
        ]
  in
  (ctx, outs)

let test_run_matches_reference () =
  let gen = Mde.Chain.transform_exn (model ()) in
  let frame = frame_of 0 in
  let _, outs = run_frame gen frame in
  let expected = Video.Downscaler.frame frame in
  List.iter
    (fun (port, ch) ->
      Alcotest.(check bool) (port ^ " matches reference") true
        (tensor_eq (List.assoc port outs) (Video.Frame.plane expected ch)))
    [ ("r_out", Video.Frame.R); ("g_out", Video.Frame.G); ("b_out", Video.Frame.B) ]

let test_run_event_profile () =
  let gen = Mde.Chain.transform_exn (model ()) in
  let ctx, _ = run_frame gen (frame_of 1) in
  let events = Gpu.Timeline.events (Gpu.Context.timeline (Opencl.Runtime.gpu_context ctx)) in
  let count kind =
    List.length (List.filter (fun (e : Gpu.Timeline.event) -> e.Gpu.Timeline.kind = kind) events)
  in
  (* Per frame: 3 plane uploads, 3 H kernels, 3 V kernels, 3 downloads —
     the per-frame rates behind Table I's 900/900 copies and
     "(3 kernels)" rows. *)
  Alcotest.(check int) "3 uploads" 3 (count Gpu.Timeline.Memcpy_h2d);
  Alcotest.(check int) "3 downloads" 3 (count Gpu.Timeline.Memcpy_d2h);
  Alcotest.(check int) "6 kernel launches" 6 (count Gpu.Timeline.Kernel);
  let rows = Gpu.Profiler.rows (Gpu.Context.timeline (Opencl.Runtime.gpu_context ctx)) in
  let find op = List.find_opt (fun (r : Gpu.Profiler.row) -> r.Gpu.Profiler.operation = op) rows in
  Alcotest.(check bool) "H. Filter (3 kernels) row" true
    (find "H. Filter (3 kernels)" <> None);
  Alcotest.(check bool) "V. Filter (3 kernels) row" true
    (find "V. Filter (3 kernels)" <> None)

(* ---------- Kernel fusion (--opt fuse) ---------- *)

let test_fusion_fuses_chain () =
  match Mde.Chain.transform ~opt:Optimizer.Mode.Fuse (model ()) with
  | Error m -> Alcotest.failf "chain failed: %s" m
  | Ok (gen, trace) ->
      (* hf -> vf fused per plane: 6 kernels become 3. *)
      Alcotest.(check int) "3 kernel tasks" 3
        (List.length gen.Mde.Codegen.kernel_tasks);
      Alcotest.(check bool) "fusion pass recorded" true
        (List.exists
           (fun (t : Mde.Chain.trace) ->
             contains t.Mde.Chain.pass "fusion"
             && contains t.Mde.Chain.detail "3 kernel(s) inlined")
           trace);
      (* The analysis gates accept every fused kernel. *)
      Alcotest.(check int) "0 findings" 0
        (List.length (Mde.Verify.check gen.Mde.Codegen.kernel_tasks));
      (* The re-rendered sources describe the fused program. *)
      Alcotest.(check bool) "fused kernel in .cl" true
        (contains gen.Mde.Codegen.cl_source "rvf_VerticalFilter_f");
      Alcotest.(check bool) "producer kernel gone" true
        (not (contains gen.Mde.Codegen.cl_source "__kernel void rhf_"))

let test_fusion_bit_identical () =
  let frame = frame_of 3 in
  let reference = Video.Downscaler.frame frame in
  let gen = Mde.Chain.transform_exn ~opt:Optimizer.Mode.Fuse (model ()) in
  let _, outs = (run_frame ~liveness:true gen frame : _ * _) in
  List.iter
    (fun (port, ch) ->
      Alcotest.(check bool) (port ^ " bit-identical") true
        (tensor_eq (List.assoc port outs) (Video.Frame.plane reference ch)))
    [ ("r_out", Video.Frame.R); ("g_out", Video.Frame.G); ("b_out", Video.Frame.B) ]

let test_fusion_fewer_launches () =
  let gen = Mde.Chain.transform_exn ~opt:Optimizer.Mode.Fuse (model ()) in
  let ctx, _ = run_frame ~liveness:true gen (frame_of 1) in
  let events =
    Gpu.Timeline.events (Gpu.Context.timeline (Opencl.Runtime.gpu_context ctx))
  in
  let launches =
    List.length
      (List.filter
         (fun (e : Gpu.Timeline.event) -> e.Gpu.Timeline.kind = Gpu.Timeline.Kernel)
         events)
  in
  Alcotest.(check int) "3 launches instead of 6" 3 launches

(* The host program Codegen prints is the one Chain.run executes: the
   clEnqueueWriteBuffer / ReadBuffer / NDRangeKernel lines of the .cpp,
   as direction and element count or kernel name, equal the recorded
   h2d / d2h / kernel events in order. *)
let ocl_schedule src =
  let kernels = Hashtbl.create 8 in
  let field line i =
    String.trim (List.nth (String.split_on_char ',' line) i)
  in
  let count line i =
    int_of_string (String.trim (List.hd (String.split_on_char '*' (field line i))))
  in
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         if contains line "clCreateKernel(" then begin
           (* cl_kernel kN = clCreateKernel(program, "name", NULL); *)
           let var = List.nth (String.split_on_char ' ' (String.trim line)) 1 in
           Hashtbl.replace kernels var
             (List.nth (String.split_on_char '"' line) 1);
           None
         end
         else if contains line "clEnqueueWriteBuffer(" then
           Some ("h2d", string_of_int (count line 4))
         else if contains line "clEnqueueReadBuffer(" then
           Some ("d2h", string_of_int (count line 4))
         else if contains line "clEnqueueNDRangeKernel(" then
           Some ("kernel", Hashtbl.find kernels (field line 1))
         else None)

let test_emitted_is_executed () =
  let rows = 72 and cols = 64 in
  List.iter
    (fun opt ->
      let gen =
        Mde.Chain.transform_exn ~opt (Mde.Chain.downscaler_model ~rows ~cols)
      in
      let ctx = Opencl.Runtime.create_context () in
      ignore
        (Mde.Chain.run ctx gen
           ~liveness:(Optimizer.Mode.liveness opt)
           ~inputs:
             (List.map
                (fun (p : Arrayol.Model.port) ->
                  (p.Arrayol.Model.pname, Tensor.create p.Arrayol.Model.pshape 1))
                gen.Mde.Codegen.boundary_inputs));
      let executed =
        List.map
          (fun (e : Gpu.Timeline.event) ->
            match e.Gpu.Timeline.kind with
            | Gpu.Timeline.Memcpy_h2d -> ("h2d", string_of_int (e.Gpu.Timeline.bytes / 4))
            | Gpu.Timeline.Memcpy_d2h -> ("d2h", string_of_int (e.Gpu.Timeline.bytes / 4))
            | Gpu.Timeline.Kernel | Gpu.Timeline.Memcpy_d2d ->
                ("kernel", e.Gpu.Timeline.detail))
          (Gpu.Timeline.events
             (Gpu.Context.timeline (Opencl.Runtime.gpu_context ctx)))
      in
      Alcotest.(check int) "three planes uploaded" 3
        (List.length (List.filter (fun (k, _) -> k = "h2d") executed));
      Alcotest.(check (list (pair string string)))
        ("--opt " ^ Optimizer.Mode.to_string opt)
        (ocl_schedule gen.Mde.Codegen.host_source)
        executed)
    Optimizer.Mode.[ Off; Fuse; Auto ]

let test_run_missing_input () =
  let gen = Mde.Chain.transform_exn (model ()) in
  let ctx = Opencl.Runtime.create_context () in
  Alcotest.(check bool) "missing input raises" true
    (try
       ignore (Mde.Chain.run ctx gen ~inputs:[]);
       false
     with Mde.Chain.Run_error _ -> true)

(* ---------- Model serialisation ---------- *)

let test_sexp_parser () =
  let s = Mde.Sexp.parse "(a (b 1 2) ; comment\n c)" in
  Alcotest.(check string) "roundtrip" "(a (b 1 2) c)" (Mde.Sexp.to_string s);
  Alcotest.(check bool) "unclosed rejected" true
    (try
       ignore (Mde.Sexp.parse "(a (b)");
       false
     with Mde.Sexp.Parse_error _ -> true);
  Alcotest.(check bool) "trailing rejected" true
    (try
       ignore (Mde.Sexp.parse "(a) (b)");
       false
     with Mde.Sexp.Parse_error _ -> true)

let test_model_io_roundtrip () =
  let m = model () in
  let text = Mde.Model_io.to_string m in
  let m' = Mde.Model_io.of_string text in
  Alcotest.(check string) "same name" m.Mde.Marte.mname m'.Mde.Marte.mname;
  Alcotest.(check int) "same allocations"
    (List.length m.Mde.Marte.allocations)
    (List.length m'.Mde.Marte.allocations);
  (* Strongest check: the reloaded model transforms and computes the
     same frames. *)
  let gen = Mde.Chain.transform_exn m' in
  let frame = frame_of 7 in
  let ctx = Opencl.Runtime.create_context () in
  let outs =
    Mde.Chain.run ctx gen
      ~inputs:
        [
          ("r_in", Video.Frame.plane frame Video.Frame.R);
          ("g_in", Video.Frame.plane frame Video.Frame.G);
          ("b_in", Video.Frame.plane frame Video.Frame.B);
        ]
  in
  let expected = Video.Downscaler.frame frame in
  Alcotest.(check bool) "reloaded model computes the reference" true
    (tensor_eq (List.assoc "r_out" outs)
       (Video.Frame.plane expected Video.Frame.R))

let test_model_io_file () =
  let m = model () in
  let path = Filename.temp_file "model" ".aol" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mde.Model_io.save path m;
      let m' = Mde.Model_io.load path in
      Alcotest.(check string) "file roundtrip" (Mde.Model_io.to_string m)
        (Mde.Model_io.to_string m'))

let test_model_io_rejects_garbage () =
  Alcotest.(check bool) "not a model" true
    (try
       ignore (Mde.Model_io.of_string "(banana)");
       false
     with Mde.Model_io.Format_error _ -> true)

(* Malformed files fail with a Format_error naming the file and the
   fault, not with an escaping parser or Tiler exception. *)
let test_model_io_located_errors () =
  let strip =
    "(model strip (platform (gpu gpu0))\n\
    \ (application (repetitive S (repetition 9 10)\n\
    \  (ports (in in (9 80)) (out out (9 30)))\n\
    \  (inner (elementary H (ip HorizontalReduction)\n\
    \    (ports (in pattern_in (11)) (out pattern_out (3)))))\n\
    \  (in-tiling in pattern_in (origin 0 0) (fitting (0) (1)) (paving (1 0) (0 8)))\n\
    \  (out-tiling out pattern_out (origin 0 0) (fitting (0) (1)) (paving (1 0) (0 3))))))\n"
  in
  let replace ~sub ~by s =
    let n = String.length sub in
    let rec at i = if String.sub s i n = sub then i else at (i + 1) in
    let i = at 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  let load_error text =
    let path = Filename.temp_file "bad" ".aol" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        match Mde.Model_io.load path with
        | _ -> Alcotest.fail "malformed model loaded"
        | exception Mde.Model_io.Format_error m ->
            let prefix = path ^ ": " in
            let n = String.length prefix in
            Alcotest.(check string) "located" prefix (String.sub m 0 n);
            String.sub m n (String.length m - n))
  in
  ignore (Mde.Model_io.of_string strip);
  Alcotest.(check string) "truncated" "unclosed parenthesis at offset 60"
    (load_error (String.sub strip 0 60));
  Alcotest.(check string) "no repetition" "missing (repetition ...) form"
    (load_error (replace ~sub:"(repetition 9 10)" ~by:"" strip));
  Alcotest.(check string) "ragged fitting"
    "tiling pattern_in: Tiler.make: ragged matrix"
    (load_error (replace ~sub:"(fitting (0) (1))" ~by:"(fitting (0) (1 2))" strip))

(* ---------- Properties ---------- *)

let prop_chain_matches_semantics =
  QCheck.Test.make
    ~name:"generated OpenCL = ArrayOL reference semantics" ~count:6
    (QCheck.int_range 0 400) (fun n ->
      let gen = Mde.Chain.transform_exn (model ()) in
      let frame = frame_of n in
      let _, outs = run_frame gen frame in
      let direct =
        Arrayol.Semantics.run
          (Arrayol.Downscaler_model.frame ~rows ~cols)
          ~inputs:
            [
              ("r_in", Video.Frame.plane frame Video.Frame.R);
              ("g_in", Video.Frame.plane frame Video.Frame.G);
              ("b_in", Video.Frame.plane frame Video.Frame.B);
            ]
      in
      List.for_all
        (fun port -> tensor_eq (List.assoc port outs) (List.assoc port direct))
        [ "r_out"; "g_out"; "b_out" ])

let props = List.map QCheck_alcotest.to_alcotest [ prop_chain_matches_semantics ]

let () =
  Alcotest.run "mde"
    [
      ( "marte",
        [
          Alcotest.test_case "platform" `Quick test_platform;
          Alcotest.test_case "allocation" `Quick test_allocation;
          Alcotest.test_case "stereotypes" `Quick test_stereotypes;
        ] );
      ( "transform",
        [
          Alcotest.test_case "trace" `Quick test_transform_trace;
          Alcotest.test_case "rejects invalid" `Quick
            test_transform_rejects_invalid;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "kernel structure" `Quick test_kernel_structure;
          Alcotest.test_case "sources" `Quick test_cl_source_shape;
        ] );
      ( "model-io",
        [
          Alcotest.test_case "sexp parser" `Quick test_sexp_parser;
          Alcotest.test_case "roundtrip" `Quick test_model_io_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_model_io_file;
          Alcotest.test_case "located load errors" `Quick
            test_model_io_located_errors;
          Alcotest.test_case "rejects garbage" `Quick
            test_model_io_rejects_garbage;
        ] );
      ( "run",
        [
          Alcotest.test_case "matches reference" `Quick
            test_run_matches_reference;
          Alcotest.test_case "event profile" `Quick test_run_event_profile;
          Alcotest.test_case "missing input" `Quick test_run_missing_input;
          Alcotest.test_case "emitted = executed" `Quick
            test_emitted_is_executed;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "fuses the chain" `Quick test_fusion_fuses_chain;
          Alcotest.test_case "bit-identical output" `Quick
            test_fusion_bit_identical;
          Alcotest.test_case "fewer launches" `Quick
            test_fusion_fewer_launches;
        ] );
      ("properties", props);
    ]
