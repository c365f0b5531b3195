open Ndarray

let rows = 18

let cols = 16

let plane_of n =
  Video.Frame.plane
    (Video.Framegen.frame { Video.Format.name = "s"; rows; cols } n)
    Video.Frame.R

let compile ?split_generators ?opt ~generic ~filter () =
  let src =
    match filter with
    | `H -> Sac.Programs.horizontal ~generic ~rows ~cols
    | `V -> Sac.Programs.vertical ~generic ~rows ~cols
    | `Both -> Sac.Programs.downscaler ~generic ~rows ~cols
  in
  Sac_cuda.Compile.plan_of_source ?split_generators ?opt src ~entry:"main"

let execute ?liveness plan plane =
  let ctx = Gpu.Context.create () in
  let outcome =
    Sac_cuda.Exec.run ?liveness ctx plan ~args:[ ("frame", plane) ]
  in
  (ctx, outcome)

let events ctx kind =
  List.filter
    (fun (e : Gpu.Timeline.event) -> e.Gpu.Timeline.kind = kind)
    (Gpu.Timeline.events (Gpu.Context.timeline ctx))

(* ---------- Plan structure ---------- *)

let device_withloops (plan : Sac_cuda.Plan.t) =
  List.length
    (List.filter
       (function Sac_cuda.Plan.Device_withloop _ -> true | _ -> false)
       plan.Sac_cuda.Plan.items)

let host_blocks (plan : Sac_cuda.Plan.t) =
  List.length
    (List.filter
       (function Sac_cuda.Plan.Host_block _ -> true | _ -> false)
       plan.Sac_cuda.Plan.items)

let test_plan_nongeneric_h () =
  let plan, _ = compile ~generic:false ~filter:`H () in
  Alcotest.(check int) "one device with-loop" 1
    (device_withloops plan);
  (* Figure 8 / Table II: 5 kernels for the horizontal filter. *)
  Alcotest.(check int) "5 kernels" 5 (Sac_cuda.Plan.kernel_count plan);
  Alcotest.(check int) "no host blocks" 0
    (host_blocks plan)

let test_plan_nongeneric_v () =
  let plan, _ = compile ~generic:false ~filter:`V () in
  (* Table II: 7 kernels for the vertical filter. *)
  Alcotest.(check int) "7 kernels" 7 (Sac_cuda.Plan.kernel_count plan)

let test_plan_nongeneric_full () =
  let plan, _ = compile ~generic:false ~filter:`Both () in
  Alcotest.(check int) "5 + 7 kernels" 12 (Sac_cuda.Plan.kernel_count plan);
  Alcotest.(check int) "two device with-loops" 2
    (device_withloops plan)

let test_plan_generic_h () =
  let plan, _ = compile ~generic:true ~filter:`H () in
  (* The generic output tiler's for-nest stays on the host. *)
  Alcotest.(check bool) "has host block" true
    (host_blocks plan >= 1);
  Alcotest.(check int) "one device with-loop" 1
    (device_withloops plan)

let test_plan_without_split () =
  let plan, _ =
    compile ~split_generators:false ~generic:false ~filter:`H ()
  in
  Alcotest.(check int) "3 kernels without Figure 8 splitting" 3
    (Sac_cuda.Plan.kernel_count plan)

(* ---------- Execution correctness ---------- *)

let tensor_eq = Tensor.equal Int.equal

let test_exec_nongeneric_h () =
  let plan, _ = compile ~generic:false ~filter:`H () in
  let plane = plane_of 0 in
  let _, outcome = execute plan plane in
  Alcotest.(check bool) "bit-exact vs reference" true
    (tensor_eq outcome.Sac_cuda.Exec.result (Video.Downscaler.horizontal plane));
  Alcotest.(check int) "5 launches" 5 outcome.Sac_cuda.Exec.kernel_launches

let test_exec_nongeneric_v () =
  let plan, _ = compile ~generic:false ~filter:`V () in
  let plane = plane_of 1 in
  let _, outcome = execute plan plane in
  Alcotest.(check bool) "bit-exact vs reference" true
    (tensor_eq outcome.Sac_cuda.Exec.result (Video.Downscaler.vertical plane));
  Alcotest.(check int) "7 launches" 7 outcome.Sac_cuda.Exec.kernel_launches

let test_exec_nongeneric_full () =
  let plan, _ = compile ~generic:false ~filter:`Both () in
  let plane = plane_of 2 in
  let _, outcome = execute plan plane in
  Alcotest.(check bool) "bit-exact vs reference" true
    (tensor_eq outcome.Sac_cuda.Exec.result (Video.Downscaler.plane plane))

let test_exec_generic_h () =
  let plan, _ = compile ~generic:true ~filter:`H () in
  let plane = plane_of 3 in
  let ctx, outcome = execute plan plane in
  Alcotest.(check bool) "bit-exact vs reference" true
    (tensor_eq outcome.Sac_cuda.Exec.result (Video.Downscaler.horizontal plane));
  (* The host tiler forces an intermediate device->host transfer
     (Section VIII-A) and charges host time. *)
  Alcotest.(check bool) "device->host for intermediate" true
    (List.length (events ctx Gpu.Timeline.Memcpy_d2h) >= 1);
  Alcotest.(check bool) "host time charged" true
    (outcome.Sac_cuda.Exec.host_us > 0.0)

let test_exec_generic_full () =
  let plan, _ = compile ~generic:true ~filter:`Both () in
  let plane = plane_of 4 in
  let _, outcome = execute plan plane in
  Alcotest.(check bool) "bit-exact vs reference" true
    (tensor_eq outcome.Sac_cuda.Exec.result (Video.Downscaler.plane plane))

let test_transfer_counts_nongeneric () =
  let plan, _ = compile ~generic:false ~filter:`Both () in
  let plane = plane_of 5 in
  let ctx, _ = execute plan plane in
  (* One frame upload, one result download per plane run -- matches the
     3-per-frame (R,G,B) rate of Tables I/II when run per plane. *)
  Alcotest.(check int) "one h2d" 1 (List.length (events ctx Gpu.Timeline.Memcpy_h2d));
  Alcotest.(check int) "one d2h" 1 (List.length (events ctx Gpu.Timeline.Memcpy_d2h))

let test_exec_missing_arg () =
  let plan, _ = compile ~generic:false ~filter:`H () in
  let ctx = Gpu.Context.create () in
  Alcotest.(check bool) "missing argument rejected" true
    (try
       ignore (Sac_cuda.Exec.run ctx plan ~args:[]);
       false
     with Invalid_argument _ -> true)

let test_exec_wrong_shape () =
  let plan, _ = compile ~generic:false ~filter:`H () in
  let ctx = Gpu.Context.create () in
  Alcotest.(check bool) "wrong shape rejected" true
    (try
       ignore
         (Sac_cuda.Exec.run ctx plan
            ~args:[ ("frame", Tensor.create [| 4; 4 |] 0) ]);
       false
     with Invalid_argument _ -> true)

let test_split_vs_unsplit_same_result () =
  let plane = plane_of 6 in
  let plan_a, _ = compile ~generic:false ~filter:`H () in
  let plan_b, _ =
    compile ~split_generators:false ~generic:false ~filter:`H ()
  in
  let _, a = execute plan_a plane in
  let _, b = execute plan_b plane in
  Alcotest.(check bool) "same pixels" true
    (tensor_eq a.Sac_cuda.Exec.result b.Sac_cuda.Exec.result)

(* ---------- Timing model behaviour ---------- *)

let test_split_is_slower () =
  (* More kernels for the same work must cost more simulated time:
     launch overhead plus lost reuse (Section VIII-C). *)
  let plane = plane_of 7 in
  let time plan =
    let ctx, _ = execute plan plane in
    Gpu.Context.elapsed_us ctx
  in
  let t_split = time (fst (compile ~generic:false ~filter:`H ())) in
  let t_unsplit =
    time (fst (compile ~split_generators:false ~generic:false ~filter:`H ()))
  in
  Alcotest.(check bool) "5 kernels slower than 3" true (t_split > t_unsplit)

(* ---------- Emission ---------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = (i + nl <= hl) && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_emit_nongeneric () =
  let plan, _ = compile ~generic:false ~filter:`H () in
  let src = Sac_cuda.Emit_cu.source ~name:"downscaler_h" plan in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains src needle))
    [
      "__global__ void";
      "cudaMalloc";
      "cudaMemcpyHostToDevice";
      "cudaMemcpyDeviceToHost";
      "<<<grid, block>>>";
    ];
  (* 5 kernels in the translation unit. *)
  let count_occurrences s needle =
    let nl = String.length needle in
    let rec go i acc =
      if i + nl > String.length s then acc
      else if String.sub s i nl = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "5 __global__ kernels" 5
    (count_occurrences src "__global__ void")

let test_emit_generic_has_host_code () =
  let plan, _ = compile ~generic:true ~filter:`H () in
  let src = Sac_cuda.Emit_cu.source ~name:"downscaler_h_generic" plan in
  Alcotest.(check bool) "host-resident code marked" true
    (contains src "host-resident SAC code")

(* ---------- Emitted host program = executed host program ---------- *)

(* The host-side operations of an emitted .cu, in order: each
   cudaMemcpyAsync as its direction and element count, each launch as
   its kernel name. *)
let cu_schedule src =
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if contains line "cudaMemcpyAsync(" then
           let len =
             match String.split_on_char ',' line with
             | _ :: _ :: n :: _ ->
                 int_of_string (List.hd (String.split_on_char '*' (String.trim n)) |> String.trim)
             | _ -> Alcotest.failf "unparsed copy: %s" line
           in
           Some ((if contains line "HostToDevice" then "h2d" else "d2h"), string_of_int len)
         else
           match String.index_opt line '<' with
           | Some i when contains line "<<<" -> Some ("kernel", String.sub line 0 i)
           | _ -> None)

(* The same operations as the simulator recorded them. *)
let timeline_schedule ctx =
  List.map
    (fun (e : Gpu.Timeline.event) ->
      match e.Gpu.Timeline.kind with
      | Gpu.Timeline.Memcpy_h2d -> ("h2d", string_of_int (e.Gpu.Timeline.bytes / 4))
      | Gpu.Timeline.Memcpy_d2h -> ("d2h", string_of_int (e.Gpu.Timeline.bytes / 4))
      | Gpu.Timeline.Kernel | Gpu.Timeline.Memcpy_d2d -> ("kernel", e.Gpu.Timeline.detail))
    (Gpu.Timeline.events (Gpu.Context.timeline ctx))

(* A rank-4 with-loop whose generator leaves part of the frame to the
   base array (as in test/emit_golden). *)
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

(* The heat step of examples/stencil_heat.ml. *)
let stencil_source =
  {|
int[*] main(int[64,64] grid)
{
    next = with {
        ([1, 1] <= [i, j] < [63, 63]) {
            neighbours = grid[[i - 1, j]] + grid[[i + 1, j]] +
                         grid[[i, j - 1]] + grid[[i, j + 1]];
        } : (neighbours + 4 * grid[[i, j]]) / 8;
    } : modarray( grid);
    return( next);
}
|}

(* Uncovered elements take a non-zero constant: the output buffer is
   filled before the kernel runs. *)
let const_base_source =
  {|
int[*] main(int[8,8] a)
{
    b = with {
        ([1, 1] <= [i, j] < [7, 7]) : a[[i, j]] + 1;
    } : genarray([8, 8], 5);
    return( b);
}
|}

(* Uncovered elements take the default zero: device allocations are not
   zeroed, so the output buffer is filled all the same. *)
let zero_base_source =
  {|
int[*] main(int[9] a)
{
    b = with {
        ([1] <= iv < [8]) : 1;
    } : genarray([9]);
    return( b);
}
|}

let check_emitted_is_executed name ~opt src =
  let plan, _ = Sac_cuda.Compile.plan_of_source ~opt src ~entry:"main" in
  let args =
    List.map
      (fun (p, shape) -> (p, Tensor.init_lin shape (fun i -> (i * 7) mod 251)))
      plan.Sac_cuda.Plan.params
  in
  let ctx = Gpu.Context.create () in
  ignore (Sac_cuda.Exec.run ctx plan ~args);
  Alcotest.(check (list (pair string string)))
    (Printf.sprintf "%s --opt %s" name (Optimizer.Mode.to_string opt))
    (cu_schedule (Sac_cuda.Emit_cu.source ~name:"p" plan))
    (timeline_schedule ctx)

let test_emitted_is_executed () =
  List.iter
    (fun (name, program) ->
      List.iter
        (fun opt ->
          check_emitted_is_executed name ~opt (program ~rows:72 ~cols:64))
        Optimizer.Mode.[ Off; Fuse; Auto ])
    [
      ("horizontal", Sac.Programs.horizontal ~generic:false);
      ("horizontal-generic", Sac.Programs.horizontal ~generic:true);
      ("vertical", Sac.Programs.vertical ~generic:false);
      ("vertical-generic", Sac.Programs.vertical ~generic:true);
      ("downscaler", Sac.Programs.downscaler ~generic:false);
      ("downscaler-generic", Sac.Programs.downscaler ~generic:true);
    ];
  check_emitted_is_executed "rank4" ~opt:Optimizer.Mode.Off rank4_source;
  check_emitted_is_executed "stencil" ~opt:Optimizer.Mode.Off stencil_source;
  check_emitted_is_executed "constant base" ~opt:Optimizer.Mode.Off
    const_base_source;
  check_emitted_is_executed "zero base" ~opt:Optimizer.Mode.Off
    zero_base_source

let test_constant_base_filled () =
  let plan, _ = Sac_cuda.Compile.plan_of_source const_base_source ~entry:"main" in
  let a = Tensor.init_lin [| 8; 8 |] (fun i -> i) in
  let o = Sac_cuda.Exec.run (Gpu.Context.create ()) plan ~args:[ ("a", a) ] in
  let interpreted =
    Sac.Interp.run (Sac.Parser.program const_base_source) ~entry:"main"
      ~args:[ Sac.Value.Varr a ]
  in
  Alcotest.(check bool) "matches the interpreter" true
    (Sac.Value.equal (Sac.Value.Varr o.Sac_cuda.Exec.result) interpreted);
  Alcotest.(check bool) "fill printed" true
    (contains (Sac_cuda.Emit_cu.source ~name:"p" plan) "cuMemsetD32((CUdeviceptr)d_b, 5, 64);")

let test_zero_base_filled () =
  let plan, _ = Sac_cuda.Compile.plan_of_source zero_base_source ~entry:"main" in
  let lines =
    String.split_on_char '\n' (Sac_cuda.Emit_cu.source ~name:"p" plan)
  in
  let first needle =
    let rec go i = function
      | [] -> Alcotest.failf "no line with %s" needle
      | l :: rest -> if contains l needle then i else go (i + 1) rest
    in
    go 0 lines
  in
  Alcotest.(check bool) "zero fill before the launch" true
    (first "cuMemsetD32((CUdeviceptr)d_b, 0, 9);" < first "<<<")

(* ---------- Arguments belong to the caller ---------- *)

let test_returned_argument_is_copied () =
  let a = Tensor.init_lin [| 4; 4 |] (fun i -> i) in
  List.iter
    (fun src ->
      let plan, _ = Sac_cuda.Compile.plan_of_source src ~entry:"main" in
      let o = Sac_cuda.Exec.run (Gpu.Context.create ()) plan ~args:[ ("a", a) ] in
      Alcotest.(check bool) "not the argument" false (o.Sac_cuda.Exec.result == a);
      Alcotest.(check bool) "equal to it" true (tensor_eq o.Sac_cuda.Exec.result a))
    [
      "int[*] main(int[4,4] a) { return( a); }";
      "int[*] main(int[4,4] a) { b = a; return( b); }";
    ]

let test_generic_run_keeps_argument () =
  let plan, _ = compile ~generic:true ~filter:`Both () in
  let plane = plane_of 4 in
  let before = Tensor.copy plane in
  ignore (execute plan plane);
  Alcotest.(check bool) "argument unchanged" true (tensor_eq plane before)

(* ---------- Host-cost estimator ---------- *)

let test_estimator_accuracy () =
  (* The sampled estimate of the generic host tiler must track full
     interpretation closely (loop bodies are uniform). *)
  let plan, _ = compile ~generic:true ~filter:`H () in
  let plane = plane_of 9 in
  let host_us mode =
    let ctx = Gpu.Context.create () in
    (Sac_cuda.Exec.run ~host_mode:mode ctx plan ~args:[ ("frame", plane) ])
      .Sac_cuda.Exec.host_us
  in
  let exact = host_us `Execute in
  let estimated = host_us `Estimate in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.1f within 10%% of exact %.1f" estimated exact)
    true
    (exact > 0.0 && Float.abs (estimated -. exact) /. exact < 0.10)

let test_plane_tag_in_profile () =
  let plan, _ = compile ~generic:false ~filter:`H () in
  let ctx = Gpu.Context.create () in
  List.iter
    (fun tag ->
      ignore
        (Sac_cuda.Exec.run ~plane_tag:tag ctx plan
           ~args:[ ("frame", plane_of 1) ]))
    [ "r"; "g"; "b" ];
  let rows = Gpu.Profiler.rows (Gpu.Context.timeline ctx) in
  let kernel_row =
    List.find
      (fun (r : Gpu.Profiler.row) ->
        String.length r.Gpu.Profiler.operation >= 6
        && String.sub r.Gpu.Profiler.operation 0 6 = "output")
      rows
  in
  (* 3 plane runs x 5 kernels = 15 launches; 15 tagged clones of 5 base
     kernels => 1 round per clone, displayed as 5 kernels. *)
  Alcotest.(check bool) "(5 kernels) in the row label" true
    (let needle = "(5 kernels)" in
     let hay = kernel_row.Gpu.Profiler.operation in
     let nl = String.length needle and hl = String.length hay in
     let rec go i = (i + nl <= hl) && (String.sub hay i nl = needle || go (i + 1)) in
     go 0);
  Alcotest.(check int) "one round per plane" 1 kernel_row.Gpu.Profiler.calls

(* ---------- Fusion (--opt fuse) ---------- *)

let compile_fused () = compile ~opt:Optimizer.Mode.Fuse ~generic:false ~filter:`Both ()

let test_fused_plan_smaller () =
  let unfused, _ = compile ~generic:false ~filter:`Both () in
  let fused, _ = compile_fused () in
  (* The vertical filter's generators inline the horizontal filter's
     stores: 12 kernels over two device loops become 7 over one. *)
  Alcotest.(check int) "unfused kernels" 12 (Sac_cuda.Plan.kernel_count unfused);
  Alcotest.(check int) "fused kernels" 7 (Sac_cuda.Plan.kernel_count fused);
  Alcotest.(check int) "one device with-loop" 1
    (device_withloops fused)

let test_fused_plan_verifies () =
  let plan, _ = compile_fused () in
  Alcotest.(check int) "no findings" 0
    (List.length (Sac_cuda.Verify.check plan))

let test_fused_bit_identical () =
  let plane = plane_of 5 in
  let reference = Video.Downscaler.plane plane in
  let unfused, _ = compile ~generic:false ~filter:`Both () in
  let _, plain = execute unfused plane in
  let plan, _ = compile_fused () in
  let ctx, outcome = execute ~liveness:true plan plane in
  Alcotest.(check bool) "matches reference" true
    (tensor_eq outcome.Sac_cuda.Exec.result reference);
  Alcotest.(check bool) "matches unfused run" true
    (tensor_eq outcome.Sac_cuda.Exec.result plain.Sac_cuda.Exec.result);
  Alcotest.(check int) "7 launches" 7
    (List.length (events ctx Gpu.Timeline.Kernel))

let test_fused_peak_lower () =
  let plane = plane_of 2 in
  let peak fuse =
    let plan, _ =
      if fuse then compile_fused ()
      else compile ~generic:false ~filter:`Both ()
    in
    let ctx, _ = execute ~liveness:fuse plan plane in
    Gpu.Context.peak_bytes ctx
  in
  let fused = peak true and unfused = peak false in
  if fused >= unfused then
    Alcotest.failf "fused peak %d B not below unfused %d B" fused unfused

(* ---------- Properties ---------- *)

let prop_backend_matches_interpreter =
  QCheck.Test.make
    ~name:"compiled plan = interpreter on random frames" ~count:6
    (QCheck.pair (QCheck.int_range 0 400) QCheck.bool)
    (fun (n, generic) ->
      let plane = plane_of n in
      let src = Sac.Programs.downscaler ~generic ~rows ~cols in
      let plan, _ = Sac_cuda.Compile.plan_of_source src ~entry:"main" in
      let _, outcome = execute plan plane in
      let interpreted =
        Sac.Interp.run (Sac.Parser.program src) ~entry:"main"
          ~args:[ Sac.Value.Varr plane ]
      in
      Sac.Value.equal (Sac.Value.Varr outcome.Sac_cuda.Exec.result) interpreted)

let props = List.map QCheck_alcotest.to_alcotest [ prop_backend_matches_interpreter ]

let () =
  Alcotest.run "sac-cuda"
    [
      ( "plan",
        [
          Alcotest.test_case "non-generic H: 5 kernels" `Quick
            test_plan_nongeneric_h;
          Alcotest.test_case "non-generic V: 7 kernels" `Quick
            test_plan_nongeneric_v;
          Alcotest.test_case "full chain: 12 kernels" `Quick
            test_plan_nongeneric_full;
          Alcotest.test_case "generic H: host block" `Quick test_plan_generic_h;
          Alcotest.test_case "no splitting: 3 kernels" `Quick
            test_plan_without_split;
        ] );
      ( "exec",
        [
          Alcotest.test_case "non-generic H" `Quick test_exec_nongeneric_h;
          Alcotest.test_case "non-generic V" `Quick test_exec_nongeneric_v;
          Alcotest.test_case "non-generic full" `Quick
            test_exec_nongeneric_full;
          Alcotest.test_case "generic H" `Quick test_exec_generic_h;
          Alcotest.test_case "generic full" `Quick test_exec_generic_full;
          Alcotest.test_case "transfer counts" `Quick
            test_transfer_counts_nongeneric;
          Alcotest.test_case "missing arg" `Quick test_exec_missing_arg;
          Alcotest.test_case "wrong shape" `Quick test_exec_wrong_shape;
          Alcotest.test_case "split = unsplit pixels" `Quick
            test_split_vs_unsplit_same_result;
          Alcotest.test_case "returned argument copied" `Quick
            test_returned_argument_is_copied;
          Alcotest.test_case "generic run keeps argument" `Quick
            test_generic_run_keeps_argument;
        ] );
      ( "timing",
        [ Alcotest.test_case "splitting costs time" `Quick test_split_is_slower ] );
      ( "host-cost",
        [
          Alcotest.test_case "estimator accuracy" `Quick
            test_estimator_accuracy;
          Alcotest.test_case "plane tags" `Quick test_plane_tag_in_profile;
        ] );
      ( "emit",
        [
          Alcotest.test_case "non-generic .cu" `Quick test_emit_nongeneric;
          Alcotest.test_case "generic host code" `Quick
            test_emit_generic_has_host_code;
          Alcotest.test_case "emitted = executed" `Quick
            test_emitted_is_executed;
          Alcotest.test_case "constant base filled" `Quick
            test_constant_base_filled;
          Alcotest.test_case "zero base filled" `Quick test_zero_base_filled;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "fewer kernels" `Quick test_fused_plan_smaller;
          Alcotest.test_case "verifies clean" `Quick test_fused_plan_verifies;
          Alcotest.test_case "bit-identical" `Quick test_fused_bit_identical;
          Alcotest.test_case "lower peak memory" `Quick test_fused_peak_lower;
        ] );
      ("properties", props);
    ]
