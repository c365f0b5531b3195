(* Rewrite rules, search driver, tuned-plan cache, and the end-to-end
   autotuners of both pipelines (--opt auto). *)

open Gpu

let rows = 18

let cols = 16

(* ---------- A toy rank-2 kernel for the rule tests ---------- *)

(* out[g0 * W + g1] = in[g0 * W + g1] * 3 + g0 (asymmetric in the two
   grid dimensions, so a broken interchange would show). *)
let grid_h = 4

let grid_w = 6

let toy_kernel =
  {
    Kir.kname = "toy";
    params =
      [
        { Kir.pname = "out"; kind = Kir.Out_buffer };
        { Kir.pname = "inp"; kind = Kir.In_buffer };
      ];
    grid_rank = 2;
    body =
      [
        Kir.Let
          ( "idx",
            Kir.Bin
              ( Kir.Add,
                Kir.Bin (Kir.Mul, Kir.Gid 0, Kir.Int grid_w),
                Kir.Gid 1 ) );
        Kir.Store
          ( "out",
            Kir.Var "idx",
            Kir.Bin
              ( Kir.Add,
                Kir.Bin (Kir.Mul, Kir.Read ("inp", Kir.Var "idx"), Kir.Int 3),
                Kir.Gid 0 ) );
      ];
  }

let toy_grid = [| grid_h; grid_w |]

let buffer name n = { Buffer.id = 0; name; len = n; data = Array.make n 0 }

let run_kernel (k, grid) =
  let n = grid_h * grid_w in
  let out = buffer "out" n in
  let inp = { (buffer "inp" n) with Buffer.data = Array.init n (fun i -> i * 7 mod 31) } in
  let compiled =
    Kir.compile k
      ~args:[ ("out", Kir.Buffer_arg out); ("inp", Kir.Buffer_arg inp) ]
  in
  Kir.run_grid compiled grid;
  Buffer.to_array out

let check_same_output name candidate =
  Alcotest.(check (array int)) name (run_kernel (toy_kernel, toy_grid))
    (run_kernel candidate)

(* ---------- Rules ---------- *)

let test_interchange_semantics () =
  match Optimizer.Rules.interchange (toy_kernel, toy_grid) with
  | None -> Alcotest.fail "interchange should apply to a rank-2 kernel"
  | Some ((k, grid) as c) ->
      Alcotest.(check (array int)) "grid swapped" [| grid_w; grid_h |] grid;
      Alcotest.(check string) "kname tagged" "toy_ic" k.Kir.kname;
      check_same_output "interchanged output identical" c

let test_interchange_involution () =
  match Optimizer.Rules.interchange (toy_kernel, toy_grid) with
  | None -> Alcotest.fail "interchange should apply"
  | Some c -> (
      match Optimizer.Rules.interchange c with
      | None -> Alcotest.fail "interchange of an interchange should apply"
      | Some (k, grid) ->
          Alcotest.(check bool) "kernel restored" true (k = toy_kernel);
          Alcotest.(check (array int)) "grid restored" toy_grid grid)

let test_interchange_rank1_refused () =
  let k = { toy_kernel with Kir.grid_rank = 1 } in
  Alcotest.(check bool) "rank-1 refused" true
    (Optimizer.Rules.interchange (k, [| grid_h * grid_w |]) = None)

let test_tile_semantics () =
  match Optimizer.Rules.tile ~factor:2 (toy_kernel, toy_grid) with
  | None -> Alcotest.fail "tile x2 should apply (innermost 6 = 2 * 3)"
  | Some ((k, grid) as c) ->
      Alcotest.(check (array int)) "innermost halved" [| grid_h; grid_w / 2 |]
        grid;
      Alcotest.(check string) "kname tagged" "toy_x2" k.Kir.kname;
      check_same_output "tiled output identical" c

let test_tile_indivisible_refused () =
  Alcotest.(check bool) "factor 4 refused on extent 6" true
    (Optimizer.Rules.tile ~factor:4 (toy_kernel, toy_grid) = None);
  Alcotest.(check bool) "factor below 2 refused" true
    (Optimizer.Rules.tile ~factor:1 (toy_kernel, toy_grid) = None);
  (* Tiling away the whole dimension is refused too. *)
  Alcotest.(check bool) "factor = extent refused" true
    (Optimizer.Rules.tile ~factor:grid_w (toy_kernel, toy_grid) = None)

let test_tiled_kernel_verifies () =
  (* The analysis gate the autotuners apply accepts the rewrite. *)
  match Optimizer.Rules.tile ~factor:2 (toy_kernel, toy_grid) with
  | None -> Alcotest.fail "tile x2 should apply"
  | Some (k, grid) ->
      let n = grid_h * grid_w in
      Alcotest.(check int) "no findings" 0
        (List.length
           (Analysis.Kir_check.check
              ~buffers:[ ("out", n); ("inp", n) ]
              ~grid k))

(* ---------- Search driver ---------- *)

(* Toy state space: integers, cost |n - 7|, moves +1 / -1 plus an
   always-inapplicable move (to exercise rejection counting). *)
let toy_moves n =
  [
    { Optimizer.Search.rule = "dec"; apply = (fun () -> Some (n - 1)) };
    { Optimizer.Search.rule = "inc"; apply = (fun () -> Some (n + 1)) };
    { Optimizer.Search.rule = "nope"; apply = (fun () -> None) };
  ]

let toy_search () =
  Optimizer.Search.run ~beam:2 ~max_depth:6
    ~cost:(fun n -> Float.abs (float_of_int (n - 7)))
    ~fingerprint:string_of_int ~moves:toy_moves 3

let test_search_finds_best () =
  let o = toy_search () in
  Alcotest.(check int) "optimum found" 7 o.Optimizer.Search.best;
  Alcotest.(check (float 0.0)) "best cost" 0.0 o.Optimizer.Search.best_cost;
  Alcotest.(check (float 0.0)) "base cost" 4.0 o.Optimizer.Search.base_cost;
  Alcotest.(check (list string)) "shortest path wins"
    [ "inc"; "inc"; "inc"; "inc" ]
    o.Optimizer.Search.path;
  Alcotest.(check bool) "rejections counted" true
    (o.Optimizer.Search.rejected > 0)

let test_search_deterministic () =
  let a = toy_search () and b = toy_search () in
  Alcotest.(check (list string)) "same path" a.Optimizer.Search.path
    b.Optimizer.Search.path;
  Alcotest.(check int) "same explored count" a.Optimizer.Search.explored
    b.Optimizer.Search.explored

let test_search_dedups_cycles () =
  (* inc/dec invert each other: without fingerprint pruning the
     frontier would oscillate forever inside the depth budget. *)
  let o =
    Optimizer.Search.run ~beam:4 ~max_depth:6
      ~cost:(fun n -> float_of_int (abs n))
      ~fingerprint:string_of_int ~moves:toy_moves 0
  in
  Alcotest.(check int) "init already optimal" 0 o.Optimizer.Search.best;
  (* 13 distinct states are reachable within depth 6 of 0; minus the
     init, at most 12 can ever be explored. *)
  Alcotest.(check bool) "visited set bounds exploration" true
    (o.Optimizer.Search.explored <= 12)

(* ---------- Tuned-plan cache ---------- *)

let test_canonical_digest () =
  let d = Optimizer.Cache.canonical_digest in
  Alcotest.(check string) "gensym counters normalised"
    (d [ "x$12"; "x_12"; "y$13" ])
    (d [ "x$907"; "x_907"; "y$1021" ]);
  Alcotest.(check bool) "cross-references preserved" true
    (d [ "x$12"; "y$13"; "x$12" ] <> d [ "x$12"; "y$13"; "y$13" ]);
  Alcotest.(check bool) "structure still distinguishes" true
    (d [ "x$12"; "z" ] <> d [ "x$12"; "w" ])

let test_cache_memoises () =
  Optimizer.Cache.clear ();
  let calls = ref 0 in
  let tuned =
    { Optimizer.Cache.rules = [ "fuse!" ]; tuned_us = 1.0; base_us = 2.0 }
  in
  let key =
    Optimizer.Cache.key ~pipeline:"test" ~rows ~cols ~device:"d"
      ~digest:"abc"
  in
  let f () = incr calls; tuned in
  let a = Optimizer.Cache.find_or_tune ~key f in
  let b = Optimizer.Cache.find_or_tune ~key f in
  Alcotest.(check int) "tuner ran once" 1 !calls;
  Alcotest.(check bool) "same rules" true
    (a.Optimizer.Cache.rules = b.Optimizer.Cache.rules);
  Alcotest.(check int) "one entry" 1 (Optimizer.Cache.size ());
  Optimizer.Cache.clear ();
  Alcotest.(check int) "cleared" 0 (Optimizer.Cache.size ())

(* ---------- SAC -> CUDA autotuning ---------- *)

let sac_plan ?opt () =
  fst
    (Sac_cuda.Compile.plan_of_source ?opt
       (Sac.Programs.downscaler ~generic:false ~rows ~cols)
       ~entry:"main")

let test_sac_auto_never_loses () =
  let off = sac_plan ~opt:Optimizer.Mode.Off () in
  let fused = sac_plan ~opt:Optimizer.Mode.Fuse () in
  let tuned, _, rules = Sac_cuda.Autotune.tune off in
  let off_us = Sac_cuda.Autotune.modelled_us off in
  let fuse_us = Sac_cuda.Autotune.modelled_us fused in
  let auto_us = Sac_cuda.Autotune.modelled_us tuned in
  Alcotest.(check bool) "auto <= off" true (auto_us <= off_us +. 1e-6);
  Alcotest.(check bool) "auto <= fuse" true (auto_us <= fuse_us +. 1e-6);
  Alcotest.(check bool) "search found rewrites at this shape" true
    (rules <> []);
  (* Everything the tuner selected still passes the full plan gates. *)
  Alcotest.(check int) "tuned plan verifies" 0
    (List.length (Sac_cuda.Verify.check tuned))

let test_sac_auto_bit_identical () =
  let plane =
    Video.Frame.plane
      (Video.Framegen.frame { Video.Format.name = "t"; rows; cols } 4)
      Video.Frame.R
  in
  let reference = Video.Downscaler.plane plane in
  let tuned, _, _ = Sac_cuda.Autotune.tune (sac_plan ()) in
  let ctx = Gpu.Context.create () in
  let outcome =
    Sac_cuda.Exec.run ~liveness:true ctx tuned ~args:[ ("frame", plane) ]
  in
  Alcotest.(check bool) "tuned output = reference" true
    (Ndarray.Tensor.equal Int.equal outcome.Sac_cuda.Exec.result reference)

let test_sac_tune_hits_cache () =
  let hits () =
    Option.value ~default:0 (Obs.Metrics.find "optimizer.plan_cache_hits")
  in
  let _, _, first = Sac_cuda.Autotune.tune (sac_plan ()) in
  let before = hits () in
  (* A *fresh* compile of the same source: gensym counters moved on,
     but the canonical digest still finds the tuned entry. *)
  let _, _, second = Sac_cuda.Autotune.tune (sac_plan ()) in
  Alcotest.(check int) "second tune is a cache hit" (before + 1) (hits ());
  Alcotest.(check (list string)) "same rule path replayed" first second

let test_sac_auto_deterministic_across_domains () =
  let tune_fresh () =
    Optimizer.Cache.clear ();
    let _, _, rules = Sac_cuda.Autotune.tune (sac_plan ()) in
    rules
  in
  let saved = Gpu.Pool.default_domains () in
  let sequential = tune_fresh () in
  Gpu.Pool.set_default_domains 2;
  Gpu.Context.set_default_mode (Gpu.Context.Parallel 2);
  Fun.protect
    ~finally:(fun () ->
      Gpu.Pool.set_default_domains saved;
      Gpu.Context.set_default_mode Gpu.Context.Sequential;
      Optimizer.Cache.clear ())
    (fun () ->
      let parallel = tune_fresh () in
      Alcotest.(check (list string)) "same winner under --domains 2"
        sequential parallel)

(* ---------- Gaspard2 / MDE autotuning ---------- *)

let mde_model () = Mde.Chain.downscaler_model ~rows ~cols

let test_mde_auto_never_loses () =
  let off = Mde.Chain.transform_exn ~opt:Optimizer.Mode.Off (mde_model ()) in
  let fused = Mde.Chain.transform_exn ~opt:Optimizer.Mode.Fuse (mde_model ()) in
  let tuned, _, _ = Mde.Autotune.tune off in
  let auto_us = Mde.Autotune.modelled_us tuned in
  Alcotest.(check bool) "auto <= off" true
    (auto_us <= Mde.Autotune.modelled_us off +. 1e-6);
  Alcotest.(check bool) "auto <= fuse" true
    (auto_us <= Mde.Autotune.modelled_us fused +. 1e-6);
  Alcotest.(check int) "tuned tasks verify" 0
    (List.length (Mde.Verify.check tuned.Mde.Codegen.kernel_tasks))

let test_mde_auto_transform_traces () =
  match Mde.Chain.transform ~opt:Optimizer.Mode.Auto (mde_model ()) with
  | Error m -> Alcotest.failf "chain failed: %s" m
  | Ok (gen, trace) ->
      Alcotest.(check bool) "autotuning pass recorded" true
        (List.exists
           (fun (t : Mde.Chain.trace) ->
             String.length t.Mde.Chain.pass >= 12
             && String.sub t.Mde.Chain.pass 0 12 = "opencl2tuned")
           trace);
      (* The tuned sources are re-rendered and consistent: every kernel
         task's name appears in the .cl source. *)
      List.iter
        (fun (kt : Mde.Codegen.kernel_task) ->
          let name = kt.Mde.Codegen.kernel.Kir.kname in
          let hay = gen.Mde.Codegen.cl_source in
          let nl = String.length name and hl = String.length hay in
          let rec go i =
            i + nl <= hl && (String.sub hay i nl = name || go (i + 1))
          in
          Alcotest.(check bool) (name ^ " rendered") true (go 0))
        gen.Mde.Codegen.kernel_tasks

let test_mde_auto_bit_identical () =
  let frame =
    Video.Framegen.frame { Video.Format.name = "t"; rows; cols } 2
  in
  let reference = Video.Downscaler.frame frame in
  let tuned, _, _ =
    Mde.Autotune.tune
      (Mde.Chain.transform_exn ~opt:Optimizer.Mode.Off (mde_model ()))
  in
  let ctx = Gpu.Context.create () in
  let outs =
    Mde.Chain.run ~liveness:true ctx tuned
      ~inputs:
        [
          ("r_in", Video.Frame.plane frame Video.Frame.R);
          ("g_in", Video.Frame.plane frame Video.Frame.G);
          ("b_in", Video.Frame.plane frame Video.Frame.B);
        ]
  in
  List.iter
    (fun (port, ch) ->
      Alcotest.(check bool) (port ^ " bit-identical") true
        (Ndarray.Tensor.equal Int.equal (List.assoc port outs)
           (Video.Frame.plane reference ch)))
    [
      ("r_out", Video.Frame.R);
      ("g_out", Video.Frame.G);
      ("b_out", Video.Frame.B);
    ]

(* ---------- Search behaviour, pinned ---------- *)

(* At 72x64 both searches explore a non-trivial space.  The expected
   rule paths and counts pin the search itself: a fingerprint, gate
   memo or cost change that alters what it explores shows up here. *)
let pin_rows = 72

let pin_cols = 64

(* Gensym counters ("output$51") depend on what the process compiled
   before; mask their digits. *)
let mask_gensyms s =
  let b = Stdlib.Buffer.create (String.length s) in
  let n = String.length s in
  let is_digit i = i < n && s.[i] >= '0' && s.[i] <= '9' in
  let i = ref 0 in
  while !i < n do
    Stdlib.Buffer.add_char b s.[!i];
    if (s.[!i] = '$' || s.[!i] = '_') && is_digit (!i + 1) then begin
      Stdlib.Buffer.add_char b 'N';
      incr i;
      while is_digit !i do
        incr i
      done
    end
    else incr i
  done;
  Stdlib.Buffer.contents b

(* [f ()] with the search counters' deltas: candidates, explored
   (rules applied) and rejected. *)
let with_search_counts f =
  let m name = Option.value ~default:0 (Obs.Metrics.find name) in
  let c = m "optimizer.candidates"
  and a = m "optimizer.rules_applied"
  and r = m "optimizer.verify_rejections" in
  let x = f () in
  ( x,
    ( m "optimizer.candidates" - c,
      m "optimizer.rules_applied" - a,
      m "optimizer.verify_rejections" - r ) )

let check_search name ~path ~counts (rules, got) =
  Alcotest.(check (list string)) (name ^ " rule path") path
    (List.map mask_gensyms rules);
  Alcotest.(check (triple int int int))
    (name ^ " candidates, explored, rejected")
    counts got

let pin_sac_source () =
  Sac.Programs.downscaler ~generic:false ~rows:pin_rows ~cols:pin_cols

let test_sac_search_pinned () =
  Optimizer.Cache.clear ();
  let off =
    fst
      (Sac_cuda.Compile.plan_of_source ~opt:Optimizer.Mode.Off
         (pin_sac_source ()) ~entry:"main")
  in
  let (_, _, rules), counts =
    with_search_counts (fun () -> Sac_cuda.Autotune.tune off)
  in
  check_search "sac" ~path:[ "fuse!"; "interchange:output$N" ]
    ~counts:(62, 31, 14) (rules, counts)

let test_mde_search_pinned () =
  Optimizer.Cache.clear ();
  let off =
    Mde.Chain.transform_exn ~opt:Optimizer.Mode.Off
      (Mde.Chain.downscaler_model ~rows:pin_rows ~cols:pin_cols)
  in
  let (_, _, rules), counts =
    with_search_counts (fun () -> Mde.Autotune.tune off)
  in
  check_search "mde"
    ~path:[ "fuse!"; "interchange:bvf"; "interchange:gvf"; "interchange:rvf" ]
    ~counts:(173, 117, 43) (rules, counts)

(* The SAC tile gate: coarsening is withheld from items whose grid
   reaches 4x the device's saturation (92 160 threads on the GTX480).
   An item's size is its largest generator grid.  No 72x64 item gets
   there on the GTX480; on a one-SM device that saturates at 128
   threads the 512-thread gate applies to the horizontal filter
   (72x8 = 576 threads) but not to the vertical one (8x24 = 192).
   The lists also pin the move order, which the search's explored and
   rejected counts depend on. *)
let tiny_device =
  {
    Gpu.Device.gtx480 with
    Gpu.Device.name = "tiny";
    sm_count = 1;
    resident_threads_per_sm = 128;
  }

(* Rule names in the plan's canonical numbering, so the two items'
   targets stay distinct but do not depend on earlier compiles. *)
let sac_move_rules ~device plan =
  let _, canon = Optimizer.Cache.canonical plan in
  List.map
    (fun (c : _ Optimizer.Search.candidate) -> canon c.Optimizer.Search.rule)
    (Optimizer.Tune.moves
       (Sac_cuda.Autotune.view ~device)
       (Optimizer.Tune.init plan))

let test_sac_tile_gate () =
  let off =
    fst
      (Sac_cuda.Compile.plan_of_source ~opt:Optimizer.Mode.Off
         (pin_sac_source ()) ~entry:"main")
  in
  Alcotest.(check (list string)) "gtx480 offers every tile"
    [
      "fuse!";
      "fuse:output$0";
      "interchange:output$0";
      "tile:output$0:x2";
      "tile:output$0:x4";
      "interchange:output$99";
      "tile:output$99:x2";
      "tile:output$99:x4";
    ]
    (sac_move_rules ~device:Gpu.Device.gtx480 off);
  Alcotest.(check (list string)) "tiny device withholds big-grid tiles"
    [
      "fuse!";
      "fuse:output$0";
      "interchange:output$0";
      "interchange:output$99";
      "tile:output$99:x2";
      "tile:output$99:x4";
    ]
    (sac_move_rules ~device:tiny_device off)

(* The Gaspard2 route has no tile gate: every kernel task is offered
   both coarsening factors, on any device. *)
let test_mde_always_tiles () =
  let off =
    Mde.Chain.transform_exn ~opt:Optimizer.Mode.Off
      (Mde.Chain.downscaler_model ~rows:pin_rows ~cols:pin_cols)
  in
  let rules =
    List.map
      (fun (c : _ Optimizer.Search.candidate) -> c.Optimizer.Search.rule)
      (Optimizer.Tune.moves
         (Mde.Autotune.view ~device:tiny_device ())
         (Optimizer.Tune.init off))
  in
  List.iter
    (fun (kt : Mde.Codegen.kernel_task) ->
      List.iter
        (fun factor ->
          let rule =
            Printf.sprintf "tile:%s:x%d" kt.Mde.Codegen.instance factor
          in
          Alcotest.(check bool) (rule ^ " offered") true (List.mem rule rules))
        [ 2; 4 ])
    off.Mde.Codegen.kernel_tasks

(* A second --opt auto compile in one process replays the cached rule
   path on a plan whose gensym counters moved on; it must land on the
   searched plan, not fall back to the unoptimised one. *)
let divergences () =
  Option.value ~default:0 (Obs.Metrics.find "optimizer.replay_divergences")

let test_sac_replay_across_compiles () =
  Optimizer.Cache.clear ();
  let compile () =
    fst
      (Sac_cuda.Compile.plan_of_source ~opt:Optimizer.Mode.Auto
         (pin_sac_source ()) ~entry:"main")
  in
  let searched = compile () in
  let before = divergences () in
  let replayed = compile () in
  Alcotest.(check int) "no divergence" before (divergences ());
  Alcotest.(check int) "same kernel count"
    (Sac_cuda.Plan.kernel_count searched)
    (Sac_cuda.Plan.kernel_count replayed);
  Alcotest.(check (float 0.0)) "same modelled us"
    (Sac_cuda.Autotune.modelled_us searched)
    (Sac_cuda.Autotune.modelled_us replayed)

let test_mde_replay_across_compiles () =
  Optimizer.Cache.clear ();
  let compile () =
    Mde.Chain.transform_exn ~opt:Optimizer.Mode.Auto
      (Mde.Chain.downscaler_model ~rows:pin_rows ~cols:pin_cols)
  in
  let searched = compile () in
  let before = divergences () in
  let replayed = compile () in
  Alcotest.(check int) "no divergence" before (divergences ());
  Alcotest.(check int) "same kernel count"
    (List.length searched.Mde.Codegen.kernel_tasks)
    (List.length replayed.Mde.Codegen.kernel_tasks);
  Alcotest.(check (float 0.0)) "same modelled us"
    (Mde.Autotune.modelled_us searched)
    (Mde.Autotune.modelled_us replayed)

(* ---------- Timing-only cost runs price what execution models ---------- *)

(* Both autotuners score plans in a timing-only context, which models
   sizes and never reads data; the search is only sound if that gives
   exactly the µs a Sequential run on real frames models. *)
let opts = Optimizer.Mode.[ ("off", Off); ("fuse", Fuse); ("auto", Auto) ]

let timing_frame ~rows ~cols =
  Video.Framegen.frame { Video.Format.name = "t"; rows; cols } 1

let test_sac_timing_only_exact ~generic ~rows ~cols () =
  let plane = Video.Frame.plane (timing_frame ~rows ~cols) Video.Frame.R in
  List.iter
    (fun (name, opt) ->
      let plan =
        fst
          (Sac_cuda.Compile.plan_of_source ~opt
             (Sac.Programs.downscaler ~generic ~rows ~cols)
             ~entry:"main")
      in
      let ctx = Gpu.Context.create ~mode:Context.Sequential () in
      let outcome =
        Sac_cuda.Exec.run ~host_mode:`Estimate ctx plan
          ~args:(List.map (fun (n, _) -> (n, plane)) plan.Sac_cuda.Plan.params)
      in
      Alcotest.(check (float 0.0))
        (name ^ ": modelled_us = executed µs")
        (Gpu.Context.elapsed_us ctx +. outcome.Sac_cuda.Exec.host_us)
        (Sac_cuda.Autotune.modelled_us plan))
    opts

let test_mde_timing_only_exact ~rows ~cols () =
  let frame = timing_frame ~rows ~cols in
  let inputs =
    List.map
      (fun (port, ch) -> (port, Video.Frame.plane frame ch))
      Video.Frame.[ ("r_in", R); ("g_in", G); ("b_in", B) ]
  in
  List.iter
    (fun (name, opt) ->
      let gen =
        Mde.Chain.transform_exn ~opt (Mde.Chain.downscaler_model ~rows ~cols)
      in
      let ctx = Gpu.Context.create ~mode:Context.Sequential () in
      ignore (Mde.Chain.run ctx gen ~inputs);
      Alcotest.(check (float 0.0))
        (name ^ ": modelled_us = executed µs")
        (Gpu.Context.elapsed_us ctx)
        (Mde.Autotune.modelled_us gen))
    opts

let timing_only_cases =
  List.concat_map
    (fun (rows, cols) ->
      let size = Printf.sprintf "%dx%d" rows cols in
      [
        Alcotest.test_case ("sac generic " ^ size) `Quick
          (test_sac_timing_only_exact ~generic:true ~rows ~cols);
        Alcotest.test_case ("sac non-generic " ^ size) `Quick
          (test_sac_timing_only_exact ~generic:false ~rows ~cols);
        Alcotest.test_case ("mde " ^ size) `Quick
          (test_mde_timing_only_exact ~rows ~cols);
      ])
    [ (72, 64); (144, 176) ]

let () =
  Alcotest.run "optimizer"
    [
      ( "rules",
        [
          Alcotest.test_case "interchange: same stores" `Quick
            test_interchange_semantics;
          Alcotest.test_case "interchange: involution" `Quick
            test_interchange_involution;
          Alcotest.test_case "interchange: rank-1 refused" `Quick
            test_interchange_rank1_refused;
          Alcotest.test_case "tile: same stores" `Quick test_tile_semantics;
          Alcotest.test_case "tile: indivisible refused" `Quick
            test_tile_indivisible_refused;
          Alcotest.test_case "tile: candidate verifies" `Quick
            test_tiled_kernel_verifies;
        ] );
      ( "search",
        [
          Alcotest.test_case "finds the global best" `Quick
            test_search_finds_best;
          Alcotest.test_case "deterministic" `Quick test_search_deterministic;
          Alcotest.test_case "visited set closes cycles" `Quick
            test_search_dedups_cycles;
        ] );
      ( "cache",
        [
          Alcotest.test_case "canonical digest" `Quick test_canonical_digest;
          Alcotest.test_case "find_or_tune memoises" `Quick
            test_cache_memoises;
        ] );
      ( "sac",
        [
          Alcotest.test_case "auto never loses to off/fuse" `Quick
            test_sac_auto_never_loses;
          Alcotest.test_case "tuned plan bit-identical" `Quick
            test_sac_auto_bit_identical;
          Alcotest.test_case "re-tune hits the plan cache" `Quick
            test_sac_tune_hits_cache;
          Alcotest.test_case "deterministic across --domains" `Quick
            test_sac_auto_deterministic_across_domains;
        ] );
      ( "mde",
        [
          Alcotest.test_case "auto never loses to off/fuse" `Quick
            test_mde_auto_never_loses;
          Alcotest.test_case "transform records opencl2tuned" `Quick
            test_mde_auto_transform_traces;
          Alcotest.test_case "tuned program bit-identical" `Quick
            test_mde_auto_bit_identical;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "sac 72x64 search" `Quick test_sac_search_pinned;
          Alcotest.test_case "mde 72x64 search" `Quick test_mde_search_pinned;
          Alcotest.test_case "sac tile gate" `Quick test_sac_tile_gate;
          Alcotest.test_case "mde always tiles" `Quick test_mde_always_tiles;
          Alcotest.test_case "sac replay across compiles" `Quick
            test_sac_replay_across_compiles;
          Alcotest.test_case "mde replay across compiles" `Quick
            test_mde_replay_across_compiles;
        ] );
      ("timing-only exact", timing_only_cases);
    ]
