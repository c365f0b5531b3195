(* Tests for the static analyzers: interval domain soundness, kernel
   bounds/race/coverage checking, the transfer check over host steps,
   and the
   acceptance property that both pipelines' H.263 downscaler kernels
   verify clean while seeded mutants produce the expected finding. *)

open Gpu

let rows = 18
let cols = 16

(* ---------- interval domain ---------- *)

let itv lo hi = Analysis.Interval.make lo hi

let test_interval_const () =
  let i = Analysis.Interval.of_int 7 in
  Alcotest.(check bool) "const" true (Analysis.Interval.is_const i);
  Alcotest.(check (option int)) "value" (Some 7)
    (Analysis.Interval.const_value i)

(* Every concrete pair drawn from the operand intervals must land in
   the abstract result — including negative operands for Div/Mod. *)
let soundness_cases =
  [ (-7, 5); (-3, -1); (0, 0); (1, 9); (-12, 12); (2, 2); (-5, 0) ]

let check_sound name abs conc =
  List.iter
    (fun (alo, ahi) ->
      List.iter
        (fun (blo, bhi) ->
          let ia = itv alo ahi and ib = itv blo bhi in
          let ir = abs ia ib in
          for x = alo to ahi do
            for y = blo to bhi do
              match conc x y with
              | None -> ()
              | Some v ->
                  if not (Analysis.Interval.contains ir v) then
                    Alcotest.failf "%s: %d op %d = %d outside %s" name x y v
                      (Format.asprintf "%a" Analysis.Interval.pp ir)
            done
          done)
        soundness_cases)
    soundness_cases

let test_interval_soundness () =
  check_sound "add" Analysis.Interval.add (fun x y -> Some (x + y));
  check_sound "sub" Analysis.Interval.sub (fun x y -> Some (x - y));
  check_sound "mul" Analysis.Interval.mul (fun x y -> Some (x * y));
  check_sound "div" Analysis.Interval.div_c (fun x y ->
      if y = 0 then None else Some (x / y));
  check_sound "mod" Analysis.Interval.mod_c (fun x y ->
      if y = 0 then None else Some (x mod y));
  check_sound "min" Analysis.Interval.min_ (fun x y -> Some (min x y));
  check_sound "max" Analysis.Interval.max_ (fun x y -> Some (max x y))

let test_interval_c_division () =
  (* truncation towards zero, remainder sign follows the dividend *)
  let d = Analysis.Interval.div_c (itv (-7) (-7)) (itv 2 2) in
  Alcotest.(check (option int)) "-7/2 = -3" (Some (-3))
    (Analysis.Interval.const_value d);
  let m = Analysis.Interval.mod_c (itv (-7) (-7)) (itv 2 2) in
  Alcotest.(check (option int)) "-7%2 = -1" (Some (-1))
    (Analysis.Interval.const_value m);
  let m2 = Analysis.Interval.mod_c (itv 7 7) (itv (-2) (-2)) in
  Alcotest.(check (option int)) "7%-2 = 1" (Some 1)
    (Analysis.Interval.const_value m2);
  (* identity: dividend already inside [0, m) *)
  let id = Analysis.Interval.mod_c (itv 0 7) (itv 8 8) in
  Alcotest.(check bool) "mod identity" true
    (id.Analysis.Interval.lo = 0 && id.Analysis.Interval.hi = 7)

(* ---------- kernel verifier ---------- *)

let vadd_kernel =
  {
    Kir.kname = "vadd";
    params =
      [
        { Kir.pname = "a"; kind = Kir.In_buffer };
        { Kir.pname = "b"; kind = Kir.In_buffer };
        { Kir.pname = "out"; kind = Kir.Out_buffer };
      ];
    grid_rank = 1;
    body =
      [
        Kir.Store
          ( "out",
            Kir.Gid 0,
            Kir.Bin (Kir.Add, Kir.Read ("a", Kir.Gid 0), Kir.Read ("b", Kir.Gid 0))
          );
      ];
  }

let kinds fs = List.map (fun f -> f.Analysis.Finding.kind) fs

let has_kind k fs = List.mem k (kinds fs)

let test_kir_check_clean () =
  let fs =
    Analysis.Kir_check.check
      ~buffers:[ ("a", 64); ("b", 64); ("out", 64) ]
      ~grid:[| 64 |] vadd_kernel
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

let test_kir_check_shrunk_buffer () =
  (* mutant: buffer [b] one element too short for the launch *)
  let fs =
    Analysis.Kir_check.check
      ~buffers:[ ("a", 64); ("b", 63); ("out", 64) ]
      ~grid:[| 64 |] vadd_kernel
  in
  Alcotest.(check bool) "oob read" true (has_kind Analysis.Finding.Oob_read fs)

let test_kir_check_oob_store () =
  let k =
    {
      vadd_kernel with
      Kir.kname = "oob";
      body =
        [
          Kir.Store
            ( "out",
              Kir.Bin (Kir.Add, Kir.Gid 0, Kir.Int 1),
              Kir.Read ("a", Kir.Gid 0) );
        ];
    }
  in
  let fs =
    Analysis.Kir_check.check
      ~buffers:[ ("a", 64); ("b", 64); ("out", 64) ]
      ~grid:[| 64 |] k
  in
  Alcotest.(check bool) "oob write" true (has_kind Analysis.Finding.Oob_write fs);
  (* the mutant also leaves [b] unused *)
  Alcotest.(check bool) "unused param" true
    (has_kind Analysis.Finding.Unused_param fs)

let test_kir_check_mod_by_zero () =
  (* mutant: a modulo whose divisor is the constant zero *)
  let k =
    {
      vadd_kernel with
      Kir.kname = "modzero";
      body =
        [
          Kir.Store
            ( "out",
              Kir.Bin (Kir.Mod, Kir.Gid 0, Kir.Int 0),
              Kir.Bin (Kir.Add, Kir.Read ("a", Kir.Gid 0),
                       Kir.Read ("b", Kir.Gid 0)) );
        ];
    }
  in
  let fs =
    Analysis.Kir_check.check
      ~buffers:[ ("a", 64); ("b", 64); ("out", 64) ]
      ~grid:[| 64 |] k
  in
  let errs =
    List.filter
      (fun f ->
        f.Analysis.Finding.kind = Analysis.Finding.Mod_by_zero
        && f.Analysis.Finding.severity = Analysis.Finding.Error)
      fs
  in
  Alcotest.(check bool) "definite mod by zero" true (errs <> [])

let test_kir_check_div_by_zero () =
  let k =
    {
      vadd_kernel with
      Kir.kname = "divzero";
      body =
        [
          Kir.Store
            ( "out",
              Kir.Gid 0,
              Kir.Bin (Kir.Div, Kir.Read ("a", Kir.Gid 0),
                       Kir.Bin (Kir.Sub, Kir.Gid 0, Kir.Gid 0)) );
        ];
    }
  in
  let fs =
    Analysis.Kir_check.check
      ~buffers:[ ("a", 64); ("b", 64); ("out", 64) ]
      ~grid:[| 64 |] k
  in
  Alcotest.(check bool) "div by zero" true
    (has_kind Analysis.Finding.Div_by_zero fs)

(* ---------- race / coverage ---------- *)

let store_kernel name idx =
  {
    Kir.kname = name;
    params = [ { Kir.pname = "out"; kind = Kir.Out_buffer } ];
    grid_rank = 1;
    body = [ Kir.Store ("out", idx, Kir.Int 1) ];
  }

let test_race_clean_strided () =
  (* out[8*q + r] over a split grid: exact cover, race-free *)
  let idx =
    Kir.Bin
      ( Kir.Add,
        Kir.Bin (Kir.Mul, Kir.Int 8, Kir.Bin (Kir.Div, Kir.Gid 0, Kir.Int 8)),
        Kir.Bin (Kir.Mod, Kir.Gid 0, Kir.Int 8) )
  in
  let fs =
    Analysis.Race.check_group ~out:"out" ~len:64 ~full_cover:true
      [ (store_kernel "blocked" idx, [| 64 |]) ]
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

let test_race_overlapping_generators () =
  (* mutant: the same generator twice — every address written by both *)
  let k = store_kernel "gen" (Kir.Gid 0) in
  let fs =
    Analysis.Race.check_group ~out:"out" ~len:64 ~full_cover:false
      [ (k, [| 64 |]); (k, [| 64 |]) ]
  in
  let errs =
    List.filter
      (fun f ->
        f.Analysis.Finding.kind = Analysis.Finding.Race
        && f.Analysis.Finding.severity = Analysis.Finding.Error)
      fs
  in
  Alcotest.(check bool) "race reported" true (errs <> [])

let test_race_within_launch () =
  (* two work-items hit the same address: out[gid/2] *)
  let k = store_kernel "half" (Kir.Bin (Kir.Div, Kir.Gid 0, Kir.Int 2)) in
  let fs =
    Analysis.Race.check_group ~out:"out" ~len:64 ~full_cover:false
      [ (k, [| 64 |]) ]
  in
  Alcotest.(check bool) "race reported" true (has_kind Analysis.Finding.Race fs)

let test_race_bad_cover () =
  (* out[2*gid] claims full cover but writes only even addresses *)
  let k = store_kernel "evens" (Kir.Bin (Kir.Mul, Kir.Int 2, Kir.Gid 0)) in
  let fs =
    Analysis.Race.check_group ~out:"out" ~len:64 ~full_cover:true
      [ (k, [| 32 |]) ]
  in
  Alcotest.(check bool) "bad cover" true (has_kind Analysis.Finding.Bad_cover fs)

let test_race_interleaved_disjoint () =
  (* Figure-8-style split: generator k writes addresses = k (mod 4) *)
  let gen k =
    ( store_kernel
        (Printf.sprintf "gen%d" k)
        (Kir.Bin (Kir.Add, Kir.Int k, Kir.Bin (Kir.Mul, Kir.Int 4, Kir.Gid 0))),
      [| 16 |] )
  in
  let fs =
    Analysis.Race.check_group ~out:"out" ~len:64 ~full_cover:true
      (List.map gen [ 0; 1; 2; 3 ])
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

(* A fused-style dispatch kernel: an if/else chain whose arms all store
   the same address.  Exactly one arm executes per work-item, so the
   store set must stay exact and full cover provable. *)
let dispatch_kernel body =
  {
    Kir.kname = "dispatch";
    params = [ { Kir.pname = "out"; kind = Kir.Out_buffer } ];
    grid_rank = 1;
    body;
  }

let test_affine_branch_uniform () =
  let arm v = [ Kir.Store ("out", Kir.Gid 0, Kir.Int v) ] in
  let cond lim = Kir.Bin (Kir.Lt, Kir.Gid 0, Kir.Int lim) in
  (* a nested else chain, as the fusion pass emits: three arms *)
  let k =
    dispatch_kernel
      [ Kir.If (cond 16, arm 1, [ Kir.If (cond 32, arm 2, arm 3) ]) ]
  in
  (match Analysis.Affine.store_sets ~grid:[| 64 |] k with
  | Some [ ("out", s) ] ->
      Alcotest.(check bool) "exact" true s.Analysis.Affine.exact;
      Alcotest.(check int) "events" 64 s.Analysis.Affine.events
  | Some sets ->
      Alcotest.failf "expected one store set, got %d" (List.length sets)
  | None -> Alcotest.fail "store sets not affine");
  (* arms storing different addresses keep the conservative inexact
     treatment *)
  let k2 =
    dispatch_kernel
      [
        Kir.If
          ( cond 32,
            arm 1,
            [
              Kir.Store
                ("out", Kir.Bin (Kir.Add, Kir.Gid 0, Kir.Int 1), Kir.Int 2);
            ] );
      ]
  in
  match Analysis.Affine.store_sets ~grid:[| 64 |] k2 with
  | Some sets ->
      Alcotest.(check int) "both stores kept" 2 (List.length sets);
      Alcotest.(check bool) "inexact" true
        (List.for_all (fun (_, s) -> not s.Analysis.Affine.exact) sets)
  | None -> Alcotest.fail "store sets not affine"

let test_race_branch_uniform_cover () =
  let arm v = [ Kir.Store ("out", Kir.Gid 0, Kir.Int v) ] in
  let k =
    dispatch_kernel
      [ Kir.If (Kir.Bin (Kir.Lt, Kir.Gid 0, Kir.Int 32), arm 1, arm 2) ]
  in
  let fs =
    Analysis.Race.check_group ~out:"out" ~len:64 ~full_cover:true
      [ (k, [| 64 |]) ]
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

(* ---------- race / coverage: concrete fallback ---------- *)

(* Store addresses with a [gid * gid] term are not affine, so these
   groups reach the concrete fallback that evaluates every work-item.
   The findings are pinned as printed. *)

let sq = Kir.Bin (Kir.Mul, Kir.Gid 0, Kir.Gid 0)

(* (gid*gid mod 2) * 32 + gid / 2: a permutation of [0, 64) over 64
   work-items; over the first 32 it writes 32 distinct addresses *)
let parity_split =
  Kir.Bin
    ( Kir.Add,
      Kir.Bin (Kir.Mul, Kir.Bin (Kir.Mod, sq, Kir.Int 2), Kir.Int 32),
      Kir.Bin (Kir.Div, Kir.Gid 0, Kir.Int 2) )

let check_fallback ~name ~full_cover ?(grid = [| 64 |]) idx expected () =
  let k = store_kernel name idx in
  Alcotest.(check bool) "not affine" true
    (Analysis.Affine.store_sets ~grid k = None);
  let fs =
    Analysis.Race.check_group ~out:"out" ~len:64 ~full_cover [ (k, grid) ]
  in
  Alcotest.(check (list string)) "findings" expected
    (List.map (Format.asprintf "%a" Analysis.Finding.pp_long) fs)

let test_fallback_clean =
  check_fallback ~name:"nl_clean" ~full_cover:true parity_split []

let test_fallback_race =
  check_fallback ~name:"nl_race" ~full_cover:true
    (Kir.Bin (Kir.Mod, sq, Kir.Int 64))
    [ "kir:nl_race: error[race]: two store events write out[0]" ]

let test_fallback_bad_cover =
  check_fallback ~name:"nl_half" ~full_cover:true ~grid:[| 32 |] parity_split
    [
      "kir:nl_half: error[bad-cover]: generators claim full cover of out but \
       write 32 of 64 addresses";
    ]

let test_fallback_div_zero =
  check_fallback ~name:"nl_div0" ~full_cover:true
    (Kir.Bin (Kir.Div, sq, Kir.Bin (Kir.Sub, Kir.Gid 0, Kir.Gid 0)))
    [
      "kir:out: warning[unproven-disjoint]: concrete race check of out \
       aborted: division by zero";
      "kir:nl_div0: error[bad-cover]: generators claim full cover of out but \
       write 0 of 64 addresses";
    ]

(* A scalar parameter in the store address: the fallback has no value
   for it, so it must abort with a warning, not guess 0 (which would
   report every work-item writing out[0]). *)
let test_fallback_unbound_scalar () =
  let k =
    {
      Kir.kname = "nl_scalar";
      params =
        [
          { Kir.pname = "n"; kind = Kir.Scalar };
          { Kir.pname = "out"; kind = Kir.Out_buffer };
        ];
      grid_rank = 1;
      body =
        [
          Kir.Store
            ("out", Kir.Bin (Kir.Mul, Kir.Gid 0, Kir.Param "n"), Kir.Int 1);
        ];
    }
  in
  let fs =
    Analysis.Race.check_group ~out:"out" ~len:64 ~full_cover:false
      [ (k, [| 64 |]) ]
  in
  Alcotest.(check (list string)) "findings"
    [
      "kir:out: warning[unproven-disjoint]: concrete race check of out \
       aborted: no static value for scalar n";
    ]
    (List.map (Format.asprintf "%a" Analysis.Finding.pp_long) fs)

(* ---------- transfer check over host steps ---------- *)

(* Each mutant edits the host steps of a real program, as printed and
   run, and checks the finding the edit must produce. *)

module C = Gpu.C_print

let host_steps plan =
  (Sac_cuda.Host_walk.of_plan ~liveness:true plan).Sac_cuda.Host_walk.steps

let downscaler_plan ~generic =
  fst
    (Sac_cuda.Compile.plan_of_source ~opt:Optimizer.Mode.Off
       (Sac.Programs.downscaler ~generic ~rows ~cols)
       ~entry:"main")

let mutant_findings plan edit =
  Sac_cuda.Verify.check_steps plan (edit (host_steps plan))

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let index_of p l =
  let rec go i = function
    | [] -> Alcotest.fail "no such step"
    | x :: rest -> if p x then i else go (i + 1) rest
  in
  go 0 l

let drop_first p l =
  let i = index_of p l in
  List.filteri (fun j _ -> j <> i) l

let insert_at i step l =
  List.concat (List.mapi (fun j s -> if j = i then [ step; s ] else [ s ]) l)

let reads_buffer d = function
  | C.Launch { args; _ } -> List.exists (fun (_, a) -> a = d) args
  | _ -> false

let is_download = function C.Download _ -> true | _ -> false

let test_transfer_dropped_download () =
  (* the generic downscaler downloads a with-loop result for its host
     block; without that download the host reads stale data *)
  let fs =
    mutant_findings (downscaler_plan ~generic:true) (drop_first is_download)
  in
  Alcotest.(check bool) "missing d2h" true
    (has_kind Analysis.Finding.Missing_d2h fs)

let test_transfer_unallocated_read () =
  let fs =
    mutant_findings (downscaler_plan ~generic:false)
      (drop_first (function C.Alloc { dst; _ } -> dst = "d_frame" | _ -> false))
  in
  Alcotest.(check bool) "launch reads an unallocated buffer" true
    (List.exists
       (fun f ->
         f.Analysis.Finding.kind = Analysis.Finding.Undefined_use
         && contains f.Analysis.Finding.where "launch")
       fs)

let test_transfer_dead_write () =
  let unused =
    C.Route
      {
        code = "";
        payload =
          Sac_cuda.Plan.Const_array { target = "unused"; shape = [| 4 |]; fill = 0 };
      }
  in
  let fs =
    mutant_findings (downscaler_plan ~generic:false) (fun s -> unused :: s)
  in
  Alcotest.(check bool) "dead item" true (has_kind Analysis.Finding.Dead_item fs)

let test_transfer_unread_download () =
  (* a download of the first with-loop's intermediate, which no host
     code reads *)
  let fs =
    mutant_findings (downscaler_plan ~generic:false) (fun steps ->
        let i = index_of (function C.Launch _ -> true | _ -> false) steps in
        let out =
          match List.nth steps i with
          | C.Launch { args; _ } -> List.assoc "out" args
          | _ -> assert false
        in
        insert_at (i + 1) (C.Download { dst = "h_spare"; src = out; len = 1 }) steps)
  in
  Alcotest.(check bool) "redundant transfer" true
    (has_kind Analysis.Finding.Redundant_transfer fs)

let test_transfer_early_free () =
  (* the input's free moved before the last launch that reads it *)
  let fs =
    mutant_findings (downscaler_plan ~generic:false) (fun steps ->
        let free = C.Free { name = "d_frame" } in
        let steps' = List.filter (( <> ) free) steps in
        let last =
          List.fold_left max (-1)
            (List.mapi (fun i s -> if reads_buffer "d_frame" s then i else -1) steps')
        in
        insert_at last free steps')
  in
  Alcotest.(check bool) "undefined use" true
    (has_kind Analysis.Finding.Undefined_use fs)

let test_transfer_gaspard_dropped_upload () =
  let gen =
    Mde.Chain.transform_exn ~opt:Optimizer.Mode.Off
      (Mde.Chain.downscaler_model ~rows ~cols)
  in
  let steps = Mde.Codegen.host_steps ~liveness:true gen in
  Alcotest.(check int) "unmutated clean" 0
    (List.length (Mde.Verify.check_steps gen steps));
  let fs =
    Mde.Verify.check_steps gen
      (drop_first (function C.Upload _ -> true | _ -> false) steps)
  in
  Alcotest.(check bool) "undefined use" true
    (has_kind Analysis.Finding.Undefined_use fs)

(* Every Alloc is freed exactly once, and no buffer is allocated twice
   while live. *)
let balanced steps =
  let live = Hashtbl.create 8 in
  List.for_all
    (function
      | C.Alloc { dst; _ } ->
          let fresh = not (Hashtbl.mem live dst) in
          Hashtbl.replace live dst ();
          fresh
      | C.Free { name } ->
          let was = Hashtbl.mem live name in
          Hashtbl.remove live name;
          was
      | _ -> true)
    steps
  && Hashtbl.length live = 0

(* A with-loop whose generator leaves part of the frame to the base
   array (the rank-4 golden program and the heat step of
   examples/stencil_heat.ml). *)
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

(* A host block that updates a device-computed array in place, which a
   later kernel reads again: the stale buffer is freed before the
   re-upload allocates it anew. *)
let host_write_source =
  {|
int[*] main(int[2,4] a)
{
    b = with {
        ([0, 0] <= iv < [2, 4]) : a[iv] + 1;
    } : genarray([2, 4]);
    b[[0, 0]] = 5;
    c = with {
        ([0, 0] <= iv < [2, 4]) : b[iv] * 2;
    } : genarray([2, 4]);
    return( c);
}
|}

let test_transfer_shipped_programs () =
  let sac name opt src =
    let plan, _ = Sac_cuda.Compile.plan_of_source ~opt src ~entry:"main" in
    let what = Printf.sprintf "%s --opt %s" name (Optimizer.Mode.to_string opt) in
    Alcotest.(check int) (what ^ ": errors") 0
      (Analysis.Finding.errors (Sac_cuda.Verify.check plan));
    List.iter
      (fun liveness ->
        Alcotest.(check bool) (what ^ ": allocs freed") true
          (balanced (Sac_cuda.Host_walk.of_plan ~liveness plan).Sac_cuda.Host_walk.steps))
      [ false; true ]
  in
  List.iter
    (fun opt ->
      List.iter
        (fun (name, program) -> sac name opt (program ~rows ~cols))
        [
          ("horizontal", Sac.Programs.horizontal ~generic:false);
          ("horizontal-generic", Sac.Programs.horizontal ~generic:true);
          ("vertical", Sac.Programs.vertical ~generic:false);
          ("vertical-generic", Sac.Programs.vertical ~generic:true);
          ("downscaler", Sac.Programs.downscaler ~generic:false);
          ("downscaler-generic", Sac.Programs.downscaler ~generic:true);
        ];
      sac "rank4" opt rank4_source;
      sac "stencil" opt stencil_source;
      sac "host-write" opt host_write_source;
      let gen =
        Mde.Chain.transform_exn ~opt (Mde.Chain.downscaler_model ~rows ~cols)
      in
      let what = "gaspard --opt " ^ Optimizer.Mode.to_string opt in
      Alcotest.(check int) (what ^ ": findings") 0
        (List.length (Mde.Verify.check_generated gen));
      List.iter
        (fun liveness ->
          Alcotest.(check bool) (what ^ ": allocs freed") true
            (balanced (Mde.Codegen.host_steps ~liveness gen)))
        [ false; true ])
    Optimizer.Mode.[ Off; Fuse; Auto ]

let test_transfer_stencil_double_upload () =
  (* the base grid goes over PCIe into the output buffer although the
     kernel's input buffer already holds it *)
  let plan, _ = Sac_cuda.Compile.plan_of_source stencil_source ~entry:"main" in
  Alcotest.(check (list string)) "one redundant upload"
    [ "redundant-transfer" ]
    (List.map
       (fun f -> Analysis.Finding.kind_label f.Analysis.Finding.kind)
       (Sac_cuda.Verify.check plan))

(* ---------- the SAC pipeline ---------- *)

let sac_plan ?(rows = rows) ?(cols = cols) ~generic () =
  let src = Sac.Programs.downscaler ~generic ~rows ~cols in
  fst (Sac_cuda.Compile.plan_of_source src ~entry:"main")

let test_sac_downscaler_clean () =
  List.iter
    (fun generic ->
      let plan = sac_plan ~generic () in
      let fs = Sac_cuda.Verify.check plan in
      Alcotest.(check (list string))
        (Printf.sprintf "downscaler generic=%b verifies clean" generic)
        []
        (List.map (Format.asprintf "%a" Analysis.Finding.pp_long) fs))
    [ false; true ]

let test_sac_downscaler_paper_scale () =
  (* 1080x1920: the proof must go through symbolically — enumeration
     at this size would be visible in the test's runtime *)
  let plan = sac_plan ~rows:1080 ~cols:1920 ~generic:false () in
  let fs = Sac_cuda.Verify.check plan in
  Alcotest.(check (list string))
    "paper-scale downscaler verifies clean" []
    (List.map (Format.asprintf "%a" Analysis.Finding.pp_long) fs)

let test_sac_mutant_overlapping_generators () =
  let plan = sac_plan ~generic:false () in
  let mutated =
    {
      plan with
      Sac_cuda.Plan.items =
        List.map
          (fun item ->
            match item with
            | Sac_cuda.Plan.Device_withloop
                { target; swith; kernels; full_cover; label } ->
                (* duplicate the first generator-kernel *)
                let kernels =
                  match kernels with k :: rest -> k :: k :: rest | [] -> []
                in
                Sac_cuda.Plan.Device_withloop
                  { target; swith; kernels; full_cover; label }
            | other -> other)
          plan.Sac_cuda.Plan.items;
    }
  in
  let fs = Sac_cuda.Verify.check mutated in
  Alcotest.(check bool) "race reported" true
    (has_kind Analysis.Finding.Race fs)

let test_sac_mutant_removed_d2h () =
  (* the generic plan pulls the with-loop result into a host block;
     removing it from the declared read set loses the d2h *)
  let plan = sac_plan ~generic:true () in
  let device_targets =
    List.filter_map
      (function
        | Sac_cuda.Plan.Device_withloop { target; _ } -> Some target
        | _ -> None)
      plan.Sac_cuda.Plan.items
  in
  let mutated =
    {
      plan with
      Sac_cuda.Plan.items =
        List.map
          (fun item ->
            match item with
            | Sac_cuda.Plan.Host_block { stmts; reads; writes } ->
                let reads =
                  List.filter (fun r -> not (List.mem r device_targets)) reads
                in
                Sac_cuda.Plan.Host_block { stmts; reads; writes }
            | other -> other)
          plan.Sac_cuda.Plan.items;
    }
  in
  let fs = Sac_cuda.Verify.check mutated in
  Alcotest.(check bool) "missing d2h" true
    (has_kind Analysis.Finding.Missing_d2h fs)

let test_sac_strict_mode_rejects () =
  (* a broken program fails compilation under strict mode *)
  Analysis.Config.set_mode Analysis.Config.Strict;
  Fun.protect ~finally:(fun () -> Analysis.Config.set_mode Analysis.Config.Lint)
  @@ fun () ->
  let plan = sac_plan ~generic:false () in
  (* the clean plan passes the strict gate *)
  (match Sac_cuda.Verify.gate plan with
  | Ok () -> ()
  | Error m -> Alcotest.failf "clean plan rejected: %s" m);
  let mutated =
    {
      plan with
      Sac_cuda.Plan.items =
        List.map
          (fun item ->
            match item with
            | Sac_cuda.Plan.Device_withloop
                { target; swith; kernels; full_cover; label } ->
                (* duplicate the first generator-kernel *)
                let kernels =
                  match kernels with k :: rest -> k :: k :: rest | [] -> []
                in
                Sac_cuda.Plan.Device_withloop
                  { target; swith; kernels; full_cover; label }
            | other -> other)
          plan.Sac_cuda.Plan.items;
    }
  in
  Alcotest.(check bool) "mutant rejected" true
    (Result.is_error (Sac_cuda.Verify.gate mutated))

(* The autotuner's eligibility gate: an illegal rewrite candidate —
   here a seeded broken interchange that swaps a kernel's grid extents
   without rewriting its Gid uses — must be rejected by the same
   analysis entry points (Kir_check bounds + Race coverage) the
   optimizer consults before a candidate becomes eligible. *)
let test_sac_mutant_broken_interchange_gated () =
  let plan = sac_plan ~generic:false () in
  let swap_grid (k, grid) =
    match Array.length grid with
    | 2 -> (k, [| grid.(1); grid.(0) |])
    | _ -> (k, grid)
  in
  let gated, findings =
    List.fold_left
      (fun (gated, findings) item ->
        match item with
        | Sac_cuda.Plan.Device_withloop { swith; kernels; full_cover; _ } ->
            let fs =
              Sac_cuda.Verify.item_findings ~swith
                ~kernels:(List.map swap_grid kernels)
                ~full_cover
            in
            (gated + 1, findings @ fs)
        | _ -> (gated, findings))
      (0, []) plan.Sac_cuda.Plan.items
  in
  Alcotest.(check bool) "device items gated" true (gated > 0);
  Alcotest.(check bool) "broken interchange rejected" true (findings <> []);
  (* The sound interchange of the same kernels (grid *and* body
     swapped) passes the same gate — the rejection above is about the
     mutant, not about interchange itself. *)
  List.iter
    (fun item ->
      match item with
      | Sac_cuda.Plan.Device_withloop { swith; kernels; full_cover; _ } ->
          let sound =
            List.map
              (fun kg ->
                Option.value ~default:kg (Optimizer.Rules.interchange kg))
              kernels
          in
          Alcotest.(check (list string)) "sound interchange accepted" []
            (List.map
               (Format.asprintf "%a" Analysis.Finding.pp_long)
               (Sac_cuda.Verify.item_findings ~swith ~kernels:sound
                  ~full_cover))
      | _ -> ())
    plan.Sac_cuda.Plan.items

(* Every candidate the SAC autotuner actually offers to the search has
   already passed its gates: applying each one must yield a plan the
   full verifier accepts. *)
let test_sac_autotune_moves_all_verify () =
  let plan = sac_plan ~generic:false () in
  let moves =
    Optimizer.Tune.moves
      (Sac_cuda.Autotune.view ~device:Gpu.Device.gtx480)
      (Optimizer.Tune.init plan)
  in
  Alcotest.(check bool) "moves offered" true (moves <> []);
  List.iter
    (fun (c : _ Optimizer.Search.candidate) ->
      match c.Optimizer.Search.apply () with
      | None -> ()
      | Some (st : Sac_cuda.Plan.t Optimizer.Tune.state) ->
          Alcotest.(check (list string))
            (c.Optimizer.Search.rule ^ " result verifies")
            []
            (List.map
               (Format.asprintf "%a" Analysis.Finding.pp_long)
               (Sac_cuda.Verify.check st.Optimizer.Tune.plan)))
    moves

(* ---------- the MDE pipeline ---------- *)

let test_mde_downscaler_clean () =
  let model = Mde.Chain.downscaler_model ~rows ~cols in
  match Mde.Chain.transform model with
  | Error m -> Alcotest.failf "chain failed: %s" m
  | Ok (gen, _) ->
      let fs = Mde.Verify.check gen.Mde.Codegen.kernel_tasks in
      Alcotest.(check (list string))
        "mde downscaler verifies clean" []
        (List.map (Format.asprintf "%a" Analysis.Finding.pp_long) fs)

let test_mde_downscaler_paper_scale () =
  let model = Mde.Chain.downscaler_model ~rows:1080 ~cols:1920 in
  match Mde.Chain.transform model with
  | Error m -> Alcotest.failf "chain failed: %s" m
  | Ok (gen, _) ->
      let fs = Mde.Verify.check gen.Mde.Codegen.kernel_tasks in
      Alcotest.(check (list string))
        "paper-scale mde downscaler verifies clean" []
        (List.map (Format.asprintf "%a" Analysis.Finding.pp_long) fs)

(* Same illegal-interchange mutant on the MDE side: swapping a kernel
   task's grid extents without rewriting the kernel body must be caught
   by Verify.check — the gate Mde.Autotune applies per candidate. *)
let test_mde_mutant_broken_interchange_gated () =
  let model = Mde.Chain.downscaler_model ~rows ~cols in
  match Mde.Chain.transform model with
  | Error m -> Alcotest.failf "chain failed: %s" m
  | Ok (gen, _) -> (
      match
        List.find_opt
          (fun (kt : Mde.Codegen.kernel_task) ->
            Array.length kt.Mde.Codegen.grid = 2
            && kt.Mde.Codegen.grid.(0) <> kt.Mde.Codegen.grid.(1))
          gen.Mde.Codegen.kernel_tasks
      with
      | None -> Alcotest.fail "no rank-2 kernel task with unequal extents"
      | Some kt ->
          let grid = kt.Mde.Codegen.grid in
          let mutated =
            { kt with Mde.Codegen.grid = [| grid.(1); grid.(0) |] }
          in
          Alcotest.(check bool) "broken interchange rejected" true
            (Mde.Verify.check [ mutated ] <> []);
          (* The sound rewrite of the same task passes. *)
          let sound =
            match
              Optimizer.Rules.interchange (kt.Mde.Codegen.kernel, grid)
            with
            | Some (kernel, grid) ->
                { kt with Mde.Codegen.kernel; grid }
            | None -> Alcotest.fail "interchange refused a rank-2 kernel"
          in
          Alcotest.(check (list string)) "sound interchange accepted" []
            (List.map
               (Format.asprintf "%a" Analysis.Finding.pp_long)
               (Mde.Verify.check [ sound ])))

let test_mde_mutant_shrunk_port () =
  let model = Mde.Chain.downscaler_model ~rows ~cols in
  match Mde.Chain.transform model with
  | Error m -> Alcotest.failf "chain failed: %s" m
  | Ok (gen, _) -> (
      match gen.Mde.Codegen.kernel_tasks with
      | kt :: _ ->
          let shrink (n, shape) =
            (n, Array.map (fun d -> max 1 (d - 1)) shape)
          in
          let mutated =
            {
              kt with
              Mde.Codegen.input_ports =
                List.map shrink kt.Mde.Codegen.input_ports;
            }
          in
          let fs = Mde.Verify.check [ mutated ] in
          Alcotest.(check bool) "oob read" true
            (has_kind Analysis.Finding.Oob_read fs)
      | [] -> Alcotest.fail "no kernel tasks")


(* ---------- perf lints (static memory behaviour) ---------- *)

(* An 11-tap vertical filter shape: per-thread column walk, lane
   (last-dim) stride 1 -- perfectly coalesced warps. *)
let vertical_like ~rows:_ ~cols:c =
  let read k =
    Kir.Read
      ( "a",
        Kir.Bin
          ( Kir.Add,
            Kir.Bin
              (Kir.Mul, Kir.Bin (Kir.Add, Kir.Gid 0, Kir.Int k), Kir.Int c),
            Kir.Gid 1 ) )
  in
  let value =
    List.fold_left
      (fun acc k -> Kir.Bin (Kir.Add, acc, read k))
      (read 0)
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  {
    Kir.kname = "vfilter";
    params =
      [
        { Kir.pname = "a"; kind = Kir.In_buffer };
        { Kir.pname = "out"; kind = Kir.Out_buffer };
      ];
    grid_rank = 2;
    body =
      [
        Kir.Store
          ( "out",
            Kir.Bin (Kir.Add, Kir.Bin (Kir.Mul, Kir.Gid 0, Kir.Int c), Kir.Gid 1),
            value );
      ];
  }

let rec swap_gids_expr = function
  | Kir.Gid 0 -> Kir.Gid 1
  | Kir.Gid 1 -> Kir.Gid 0
  | Kir.Read (b, i) -> Kir.Read (b, swap_gids_expr i)
  | Kir.Bin (op, a, b) -> Kir.Bin (op, swap_gids_expr a, swap_gids_expr b)
  | Kir.Select (c, a, b) ->
      Kir.Select (swap_gids_expr c, swap_gids_expr a, swap_gids_expr b)
  | (Kir.Int _ | Kir.Gid _ | Kir.Param _ | Kir.Var _) as e -> e

let rec swap_gids_stmt = function
  | Kir.Let (n, e) -> Kir.Let (n, swap_gids_expr e)
  | Kir.Store (b, i, v) -> Kir.Store (b, swap_gids_expr i, swap_gids_expr v)
  | Kir.If (c, t, e) ->
      Kir.If
        (swap_gids_expr c, List.map swap_gids_stmt t, List.map swap_gids_stmt e)
  | Kir.For { var; lo; hi; body } ->
      Kir.For
        {
          var;
          lo = swap_gids_expr lo;
          hi = swap_gids_expr hi;
          body = List.map swap_gids_stmt body;
        }

let swap_gids (k : Kir.t) =
  { k with Kir.body = List.map swap_gids_stmt k.Kir.body }

let test_perf_vertical_clean () =
  let fs =
    Analysis.Perf_lint.check ~grid:[| 32; 64 |] (vertical_like ~rows:48 ~cols:64)
  in
  Alcotest.(check int) "no error findings" 0 (Analysis.Finding.errors fs)

(* Mutant: Gid 0 and Gid 1 swapped -- the warp's lanes now walk rows
   64 apart, one 128-byte segment per read.  The linter must flag the
   hot buffer as uncoalesced at error severity. *)
let test_perf_swap_gid_mutant () =
  let mutant = swap_gids (vertical_like ~rows:48 ~cols:64) in
  let fs = Analysis.Perf_lint.check ~grid:[| 32; 64 |] mutant in
  Alcotest.(check bool) "uncoalesced flagged" true
    (List.exists
       (fun f ->
         f.Analysis.Finding.kind = Analysis.Finding.Uncoalesced_access
         && f.Analysis.Finding.severity = Analysis.Finding.Error)
       fs)

(* Mutant: the store forked on lane parity -- warps serialise both
   sides of a branch around the dominant store. *)
let test_perf_divergent_branch_mutant () =
  let k = vertical_like ~rows:48 ~cols:64 in
  let store = List.hd k.Kir.body in
  let out_idx =
    Kir.Bin (Kir.Add, Kir.Bin (Kir.Mul, Kir.Gid 0, Kir.Int 64), Kir.Gid 1)
  in
  let mutant =
    {
      k with
      Kir.body =
        [
          Kir.If
            ( Kir.Bin (Kir.Eq, Kir.Bin (Kir.Mod, Kir.Gid 1, Kir.Int 2), Kir.Int 0),
              [ store ],
              [ Kir.Store ("out", out_idx, Kir.Int 0) ] );
        ];
    }
  in
  let fs = Analysis.Perf_lint.check ~grid:[| 32; 64 |] mutant in
  Alcotest.(check bool) "divergence flagged" true
    (has_kind Analysis.Finding.Divergent_branch fs)

(* End to end: under --perf-lint strict the shipped vertical-filter
   plan compiles, while the same plan with every kernel's grid
   dimensions swapped fails the perf gate. *)
let test_perf_strict_gate () =
  let saved = Analysis.Config.perf_mode () in
  Analysis.Config.set_perf_mode Analysis.Config.Strict;
  Fun.protect ~finally:(fun () -> Analysis.Config.set_perf_mode saved)
  @@ fun () ->
  let src = Sac.Programs.vertical ~generic:false ~rows:72 ~cols:64 in
  let plan, _ = Sac_cuda.Compile.plan_of_source src ~entry:"main" in
  (match Sac_cuda.Verify.perf_gate plan with
  | Ok () -> ()
  | Error m -> Alcotest.failf "shipped plan rejected: %s" m);
  let mutated =
    {
      plan with
      Sac_cuda.Plan.items =
        List.map
          (fun item ->
            match item with
            | Sac_cuda.Plan.Device_withloop
                { target; swith; kernels; full_cover; label } ->
                Sac_cuda.Plan.Device_withloop
                  {
                    target;
                    swith;
                    kernels =
                      List.map (fun (k, g) -> (swap_gids k, g)) kernels;
                    full_cover;
                    label;
                  }
            | other -> other)
          plan.Sac_cuda.Plan.items;
    }
  in
  match Sac_cuda.Verify.perf_gate mutated with
  | Ok () -> Alcotest.fail "uncoalesced mutant passed the strict perf gate"
  | Error _ -> ()

(* ---------- findings budget (Analysis.Config) ---------- *)

(* Five OOB reads: five findings, more than a budget of three. *)
let oob5_kernel kname =
  let reads =
    List.init 5 (fun i ->
        Kir.Read ("a", Kir.Bin (Kir.Add, Kir.Gid 0, Kir.Int (100 + i))))
  in
  let value =
    List.fold_left
      (fun acc r -> Kir.Bin (Kir.Add, acc, r))
      (List.hd reads) (List.tl reads)
  in
  {
    vadd_kernel with
    Kir.kname;
    params =
      [
        { Kir.pname = "a"; kind = Kir.In_buffer };
        { Kir.pname = "out"; kind = Kir.Out_buffer };
      ];
    body = [ Kir.Store ("out", Kir.Gid 0, value) ];
  }

let with_findings_cap n f =
  Fun.protect ~finally:(fun () ->
      Analysis.Config.set_findings_cap Analysis.Config.default_findings_cap)
  @@ fun () ->
  Analysis.Config.set_findings_cap n;
  f ()

let test_findings_cap () =
  with_findings_cap 3 @@ fun () ->
  let k = oob5_kernel "oob5" in
  let before =
    Option.value ~default:0 (Obs.Metrics.find "analysis.findings_dropped")
  in
  let fs =
    Analysis.Kir_check.check
      ~buffers:[ ("a", 64); ("out", 64) ]
      ~grid:[| 64 |] k
  in
  let after =
    Option.value ~default:0 (Obs.Metrics.find "analysis.findings_dropped")
  in
  (* three kept findings plus the truncation note *)
  Alcotest.(check int) "budget applied" 4 (List.length fs);
  Alcotest.(check bool) "truncation note" true
    (has_kind Analysis.Finding.Analysis_skipped fs);
  Alcotest.(check int) "dropped metric" (before + 2) after

(* ---------- verdict memo ---------- *)

let metric name = Option.value ~default:0 (Obs.Metrics.find name)

(* Run [f] and return its result with the memo hit and miss deltas. *)
let memo_deltas f =
  let h = metric "analysis.memo_hits" and m = metric "analysis.memo_misses" in
  let r = f () in
  (r, metric "analysis.memo_hits" - h, metric "analysis.memo_misses" - m)

let test_memo_mutant_hit () =
  (* The kernel names are unique to this test, so the first call of
     each checker is a miss and the second a hit. *)
  let check () =
    Analysis.Kir_check.check
      ~buffers:[ ("a", 64); ("b", 61); ("out", 64) ]
      ~grid:[| 64 |]
      { vadd_kernel with Kir.kname = "memo_shrunk" }
  in
  let miss, h1, m1 = memo_deltas check in
  let hit, h2, m2 = memo_deltas check in
  Alcotest.(check (pair int int)) "first call misses" (0, 1) (h1, m1);
  Alcotest.(check (pair int int)) "second call hits" (1, 0) (h2, m2);
  Alcotest.(check bool) "mutant found" true
    (has_kind Analysis.Finding.Oob_read miss);
  Alcotest.(check bool) "hit = miss" true (hit = miss);
  let race () =
    let k = store_kernel "memo_twice" (Kir.Gid 0) in
    Analysis.Race.check_group ~out:"out" ~len:64 ~full_cover:false
      [ (k, [| 64 |]); (k, [| 64 |]) ]
  in
  let miss, _, m1 = memo_deltas race in
  let hit, h2, _ = memo_deltas race in
  Alcotest.(check int) "race miss" 1 m1;
  Alcotest.(check int) "race hit" 1 h2;
  Alcotest.(check bool) "race found" true (has_kind Analysis.Finding.Race miss);
  Alcotest.(check bool) "race hit = miss" true (hit = miss)

let test_memo_hit_counts_dropped () =
  with_findings_cap 3 @@ fun () ->
  let k = oob5_kernel "memo_oob5" in
  let check () =
    let before = metric "analysis.findings_dropped" in
    ignore
      (Analysis.Kir_check.check ~buffers:[ ("a", 64); ("out", 64) ]
         ~grid:[| 64 |] k);
    metric "analysis.findings_dropped" - before
  in
  let dropped_miss, _, m = memo_deltas check in
  let dropped_hit, h, _ = memo_deltas check in
  Alcotest.(check int) "miss then hit" 2 (m + h);
  Alcotest.(check int) "miss drops two" 2 dropped_miss;
  Alcotest.(check int) "hit drops two" 2 dropped_hit

let test_memo_keyed_on_cap () =
  let k = oob5_kernel "memo_cap" in
  let check cap =
    with_findings_cap cap @@ fun () ->
    memo_deltas (fun () ->
        Analysis.Kir_check.check ~buffers:[ ("a", 64); ("out", 64) ]
          ~grid:[| 64 |] k)
  in
  let three, _, m3 = check 3 in
  let four, _, m4 = check 4 in
  let again, h3, _ = check 3 in
  Alcotest.(check (pair int int)) "each cap misses once" (1, 1) (m3, m4);
  Alcotest.(check int) "cap 3 kept three" 4 (List.length three);
  Alcotest.(check int) "cap 4 kept four" 5 (List.length four);
  Alcotest.(check int) "cap 3 again hits" 1 h3;
  Alcotest.(check bool) "same verdict" true (again = three)

let () =
  Alcotest.run "analysis"
    [
      ( "interval",
        [
          Alcotest.test_case "const" `Quick test_interval_const;
          Alcotest.test_case "soundness" `Quick test_interval_soundness;
          Alcotest.test_case "c-division" `Quick test_interval_c_division;
        ] );
      ( "kir-check",
        [
          Alcotest.test_case "clean" `Quick test_kir_check_clean;
          Alcotest.test_case "shrunk-buffer" `Quick test_kir_check_shrunk_buffer;
          Alcotest.test_case "oob-store" `Quick test_kir_check_oob_store;
          Alcotest.test_case "mod-by-zero" `Quick test_kir_check_mod_by_zero;
          Alcotest.test_case "div-by-zero" `Quick test_kir_check_div_by_zero;
        ] );
      ( "race",
        [
          Alcotest.test_case "clean-strided" `Quick test_race_clean_strided;
          Alcotest.test_case "overlapping-generators" `Quick
            test_race_overlapping_generators;
          Alcotest.test_case "within-launch" `Quick test_race_within_launch;
          Alcotest.test_case "bad-cover" `Quick test_race_bad_cover;
          Alcotest.test_case "interleaved-disjoint" `Quick
            test_race_interleaved_disjoint;
          Alcotest.test_case "branch-uniform-stores" `Quick
            test_affine_branch_uniform;
          Alcotest.test_case "fallback-clean" `Quick test_fallback_clean;
          Alcotest.test_case "fallback-race" `Quick test_fallback_race;
          Alcotest.test_case "fallback-bad-cover" `Quick
            test_fallback_bad_cover;
          Alcotest.test_case "fallback-div-zero" `Quick
            test_fallback_div_zero;
          Alcotest.test_case "fallback-unbound-scalar" `Quick
            test_fallback_unbound_scalar;
          Alcotest.test_case "branch-uniform-cover" `Quick
            test_race_branch_uniform_cover;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "dropped-download" `Quick
            test_transfer_dropped_download;
          Alcotest.test_case "unallocated-read" `Quick
            test_transfer_unallocated_read;
          Alcotest.test_case "dead-write" `Quick test_transfer_dead_write;
          Alcotest.test_case "unread-download" `Quick
            test_transfer_unread_download;
          Alcotest.test_case "early-free" `Quick test_transfer_early_free;
          Alcotest.test_case "gaspard-dropped-upload" `Quick
            test_transfer_gaspard_dropped_upload;
          Alcotest.test_case "shipped-programs" `Quick
            test_transfer_shipped_programs;
          Alcotest.test_case "stencil-double-upload" `Quick
            test_transfer_stencil_double_upload;
        ] );
      ( "sac-pipeline",
        [
          Alcotest.test_case "downscaler-clean" `Quick test_sac_downscaler_clean;
          Alcotest.test_case "paper-scale" `Quick
            test_sac_downscaler_paper_scale;
          Alcotest.test_case "mutant-overlap" `Quick
            test_sac_mutant_overlapping_generators;
          Alcotest.test_case "mutant-removed-d2h" `Quick
            test_sac_mutant_removed_d2h;
          Alcotest.test_case "mutant-broken-interchange" `Quick
            test_sac_mutant_broken_interchange_gated;
          Alcotest.test_case "autotune-moves-verify" `Quick
            test_sac_autotune_moves_all_verify;
          Alcotest.test_case "strict-mode" `Quick test_sac_strict_mode_rejects;
        ] );
      ( "perf-lint",
        [
          Alcotest.test_case "vertical-clean" `Quick test_perf_vertical_clean;
          Alcotest.test_case "mutant-swap-gid" `Quick
            test_perf_swap_gid_mutant;
          Alcotest.test_case "mutant-divergent-branch" `Quick
            test_perf_divergent_branch_mutant;
          Alcotest.test_case "strict-gate" `Quick test_perf_strict_gate;
          Alcotest.test_case "findings-cap" `Quick test_findings_cap;
        ] );
      ( "memo",
        [
          Alcotest.test_case "mutant hit = miss" `Quick test_memo_mutant_hit;
          Alcotest.test_case "hit counts dropped" `Quick
            test_memo_hit_counts_dropped;
          Alcotest.test_case "keyed on findings cap" `Quick
            test_memo_keyed_on_cap;
        ] );
      ( "mde-pipeline",
        [
          Alcotest.test_case "downscaler-clean" `Quick test_mde_downscaler_clean;
          Alcotest.test_case "paper-scale" `Quick
            test_mde_downscaler_paper_scale;
          Alcotest.test_case "mutant-shrunk-port" `Quick
            test_mde_mutant_shrunk_port;
          Alcotest.test_case "mutant-broken-interchange" `Quick
            test_mde_mutant_broken_interchange_gated;
        ] );
    ]
