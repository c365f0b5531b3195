open Ndarray

let value = Alcotest.testable Sac.Value.pp Sac.Value.equal

let small_rows = 18

let small_cols = 16

let plane_of n =
  Video.Frame.plane
    (Video.Framegen.frame
       { Video.Format.name = "s"; rows = small_rows; cols = small_cols }
       n)
    Video.Frame.R

let optimize ?(generic = false) ?(filter = `H) () =
  let src =
    match filter with
    | `H -> Sac.Programs.horizontal ~generic ~rows:small_rows ~cols:small_cols
    | `V -> Sac.Programs.vertical ~generic ~rows:small_rows ~cols:small_cols
    | `Both -> Sac.Programs.downscaler ~generic ~rows:small_rows ~cols:small_cols
  in
  Sac.Pipeline.optimize_source src ~entry:"main"

let run_fd fd arg = Sac.Interp.run [ fd ] ~entry:"main" ~args:[ arg ]

(* ---------- Inline ---------- *)

let test_inline_simple () =
  let prog =
    Sac.Parser.program
      {|
int helper(int x) { y = x + 1; return( y * 2); }
int main(int a) { b = helper(a); return( b + helper(b)); }
|}
  in
  (* Nested call in return position is not 'x = f(...)': must raise. *)
  Alcotest.(check bool) "nested call rejected" true
    (try
       ignore (Sac.Inline.program prog ~entry:"main");
       false
     with Sac.Ast.Sac_error _ -> true)

let test_inline_preserves_semantics () =
  let prog =
    Sac.Parser.program
      {|
int helper(int x) { y = x + 1; return( y * 2); }
int main(int a) { b = helper(a); c = helper(b); return( c); }
|}
  in
  let fd = Sac.Inline.program prog ~entry:"main" in
  Alcotest.(check bool) "no user calls remain" false
    (Sac.Ast.program_to_string [ fd ]
     |> fun s ->
     let needle = "helper(" in
     let nl = String.length needle and hl = String.length s in
     let rec go i = (i + nl <= hl) && (String.sub s i nl = needle || go (i + 1)) in
     go 0);
  Alcotest.check value "same result" (Sac.Value.Vint 14)
    (run_fd fd (Sac.Value.Vint 2))

let test_inline_recursion_rejected () =
  let prog =
    Sac.Parser.program
      "int f(int x) { y = f(x); return( y); } int main(int a) { b = f(a); return( b); }"
  in
  Alcotest.(check bool) "recursion rejected" true
    (try
       ignore (Sac.Inline.program prog ~entry:"main");
       false
     with Sac.Ast.Sac_error _ -> true)

(* ---------- Simplify ---------- *)

let test_simplify_folds_tiler_arith () =
  let fd, _ = optimize () in
  let printed = Sac.Ast.program_to_string [ fd ] in
  let contains needle =
    let nl = String.length needle and hl = String.length printed in
    let rec go i = (i + nl <= hl) && (String.sub printed i nl = needle || go (i + 1)) in
    go 0
  in
  (* CAT of the constant paving and fitting matrices must be folded. *)
  Alcotest.(check bool) "no CAT remains" false (contains "CAT(");
  Alcotest.(check bool) "no shape() remains" false (contains "shape(")

let test_simplify_eval_closed () =
  Alcotest.(check (option int)) "closed arith" (Some 42)
    (match Sac.Simplify.eval_closed (Sac.Parser.expr "6 * 7") with
    | Some (Sac.Value.Vint n) -> Some n
    | _ -> None);
  Alcotest.(check bool) "open expr" true
    (Sac.Simplify.eval_closed (Sac.Parser.expr "x + 1") = None)

let test_simplify_preserves_semantics () =
  let src = Sac.Programs.horizontal ~generic:false ~rows:small_rows ~cols:small_cols in
  let prog = Sac.Parser.program src in
  let fd = Sac.Inline.program prog ~entry:"main" in
  let fd' = Sac.Simplify.fundef fd in
  let plane = plane_of 7 in
  Alcotest.check value "simplify preserves result"
    (run_fd fd (Sac.Value.Varr plane))
    (run_fd fd' (Sac.Value.Varr plane))

(* ---------- DCE ---------- *)

let test_dce_removes_dead () =
  let prog =
    Sac.Parser.program
      "int main(int a) { dead = a * 100; b = a + 1; return( b); }"
  in
  let fd = Sac.Dce.fundef (List.hd prog) in
  Alcotest.(check int) "one live stmt + return" 2 (List.length fd.Sac.Ast.body)

let test_dce_keeps_update_chains () =
  let prog =
    Sac.Parser.program
      {|
int[*] main(int[*] a)
{
    b = genarray([3], 0);
    b[[1]] = a[[0]];
    return( b);
}
|}
  in
  let fd = Sac.Dce.fundef (List.hd prog) in
  Alcotest.(check int) "all three stmts live" 3 (List.length fd.Sac.Ast.body);
  Alcotest.check value "still correct"
    (Sac.Value.of_vector [| 0; 9; 0 |])
    (run_fd fd (Sac.Value.of_vector [| 9 |]))

(* ---------- WLF ---------- *)

let test_wlf_fuses_nongeneric_h () =
  let _, report = optimize ~generic:false ~filter:`H () in
  Alcotest.(check int) "3 with-loops before" 3
    report.Sac.Pipeline.withloops_before;
  Alcotest.(check int) "2 folds" 2 report.Sac.Pipeline.wlf_rounds;
  Alcotest.(check int) "1 fused with-loop" 1
    report.Sac.Pipeline.withloops_after

let test_wlf_fuses_nongeneric_v () =
  let _, report = optimize ~generic:false ~filter:`V () in
  Alcotest.(check int) "1 fused with-loop" 1
    report.Sac.Pipeline.withloops_after

let test_wlf_partial_on_generic () =
  (* The generic output tiler is a for-loop nest: WLF folds the input
     tiler into the task but cannot touch the output tiler (paper,
     Section VII). *)
  let _, report = optimize ~generic:true ~filter:`H () in
  Alcotest.(check int) "only one fold" 1 report.Sac.Pipeline.wlf_rounds;
  Alcotest.(check int) "one with-loop (plus host loop) remains" 1
    report.Sac.Pipeline.withloops_after

let test_wlf_full_chain () =
  let _, report = optimize ~generic:false ~filter:`Both () in
  (* Six with-loops (3 per filter) fold into two (one per filter). *)
  Alcotest.(check int) "6 before" 6 report.Sac.Pipeline.withloops_before;
  Alcotest.(check int) "2 after" 2 report.Sac.Pipeline.withloops_after

let test_wlf_preserves_h () =
  let fd, _ = optimize ~generic:false ~filter:`H () in
  let plane = plane_of 11 in
  Alcotest.check value "fused = reference"
    (Sac.Value.Varr (Video.Downscaler.horizontal plane))
    (run_fd fd (Sac.Value.Varr plane))

let test_wlf_preserves_v () =
  let fd, _ = optimize ~generic:false ~filter:`V () in
  let plane = plane_of 12 in
  Alcotest.check value "fused = reference"
    (Sac.Value.Varr (Video.Downscaler.vertical plane))
    (run_fd fd (Sac.Value.Varr plane))

let test_wlf_preserves_generic () =
  let fd, _ = optimize ~generic:true ~filter:`Both () in
  let plane = plane_of 13 in
  Alcotest.check value "generic chain = reference"
    (Sac.Value.Varr (Video.Downscaler.plane plane))
    (run_fd fd (Sac.Value.Varr plane))

(* ---------- Scalarize + Split ---------- *)

let scalarized_withloops fd =
  let senv =
    ref
      (List.filter_map
         (fun (t, n) -> Option.map (fun s -> (n, s)) (Sac.Shapes.of_typ t))
         fd.Sac.Ast.params)
  in
  let out = ref [] in
  List.iter
    (fun stmt ->
      (match stmt with
      | Sac.Ast.Assign (x, Sac.Ast.With w) ->
          out := (x, Sac.Scalarize.with_loop !senv w) :: !out
      | _ -> ());
      senv := Sac.Shapes.after_stmt !senv stmt)
    fd.Sac.Ast.body;
  List.rev !out

let test_scalarize_h_structure () =
  let fd, _ = optimize ~generic:false ~filter:`H () in
  match scalarized_withloops fd with
  | [ (_, sw) ] ->
      Alcotest.(check int) "3 generators before split" 3
        (List.length sw.Sac.Scalarize.sgens);
      let sw = Sac.Split_gens.normalize sw in
      (* Figure 8: five generators for the horizontal filter. *)
      Alcotest.(check int) "5 generators after split" 5
        (List.length sw.Sac.Scalarize.sgens);
      Alcotest.(check bool) "reads the frame" true
        (List.mem_assoc "frame" sw.Sac.Scalarize.arrays)
  | l -> Alcotest.failf "expected one with-loop, got %d" (List.length l)

let test_scalarize_v_structure () =
  let fd, _ = optimize ~generic:false ~filter:`V () in
  match scalarized_withloops fd with
  | [ (_, sw) ] ->
      let sw = Sac.Split_gens.normalize sw in
      (* Section VIII-C: seven kernels for the vertical filter. *)
      Alcotest.(check int) "7 generators after split" 7
        (List.length sw.Sac.Scalarize.sgens)
  | l -> Alcotest.failf "expected one with-loop, got %d" (List.length l)

let test_split_partitions () =
  let fd, _ = optimize ~generic:false ~filter:`H () in
  match scalarized_withloops fd with
  | [ (_, sw) ] ->
      let before = sw.Sac.Scalarize.sgens in
      let after = (Sac.Split_gens.normalize sw).Sac.Scalarize.sgens in
      let count gs =
        List.fold_left
          (fun acc (g : Sac.Scalarize.sgen) ->
            acc + Sac.Genspace.count g.Sac.Scalarize.space)
          0 gs
      in
      Alcotest.(check int) "same total members" (count before) (count after);
      (* All split spaces pairwise disjoint: no member is seen twice. *)
      let seen = Hashtbl.create 1024 in
      List.iter
        (fun (g : Sac.Scalarize.sgen) ->
          Sac.Genspace.iter g.Sac.Scalarize.space (fun idx ->
              if Hashtbl.mem seen idx then
                Alcotest.failf "member (%s) in two split generators"
                  (String.concat ","
                     (Array.to_list (Array.map string_of_int idx)));
              Hashtbl.add seen idx ()))
        after
  | _ -> Alcotest.fail "expected one with-loop"

(* Evaluate a scalarised with-loop with the interpreter (independent of
   the KIR backend) and compare against the reference filter. *)
let eval_swith_simple (sw : Sac.Scalarize.swith) ~bindings =
  let result =
    match sw.Sac.Scalarize.base with
    | Sac.Scalarize.Base_const c -> Tensor.create sw.Sac.Scalarize.frame c
    | Sac.Scalarize.Base_array v -> (
        match List.assoc v bindings with
        | Sac.Value.Varr t -> Tensor.copy t
        | Sac.Value.Vint _ -> Alcotest.fail "array base expected")
  in
  List.iter
    (fun (g : Sac.Scalarize.sgen) ->
      Sac.Genspace.iter g.Sac.Scalarize.space (fun idx ->
          let bindings =
            bindings
            @ List.mapi
                (fun d name -> (name, Sac.Value.Vint idx.(d)))
                g.Sac.Scalarize.index_vars
          in
          let env = Sac.Interp.env_of_list bindings in
          (* Execute locals as assignments through the interpreter. *)
          let stmts =
            List.map (fun (n, e) -> Sac.Ast.Assign (n, e)) g.Sac.Scalarize.locals
          in
          (match Sac.Interp.exec_stmts [] env stmts with
          | None -> ()
          | Some _ -> Alcotest.fail "unexpected return");
          match g.Sac.Scalarize.cell with
          | [ cell ] ->
              Tensor.set result idx
                (Sac.Value.scalar_exn (Sac.Interp.eval_expr [] env cell))
          | _ -> Alcotest.fail "scalar cells expected here"))
    sw.Sac.Scalarize.sgens;
  result

let test_scalarize_semantics () =
  let fd, _ = optimize ~generic:false ~filter:`H () in
  match scalarized_withloops fd with
  | [ (_, sw) ] ->
      let sw = Sac.Split_gens.normalize sw in
      let plane = plane_of 21 in
      let bindings =
        [ ("frame", Sac.Value.Varr plane);
          ("result_init",
           Sac.Value.Varr (Tensor.create sw.Sac.Scalarize.frame 0)) ]
      in
      let bindings =
        List.filter
          (fun (n, _) ->
            n = "frame" || List.mem_assoc n sw.Sac.Scalarize.arrays)
          bindings
      in
      let got = eval_swith_simple sw ~bindings in
      Alcotest.(check bool) "scalarised = reference" true
        (Tensor.equal Int.equal got (Video.Downscaler.horizontal plane))
  | _ -> Alcotest.fail "expected one with-loop"

(* ---------- Genspace geometry ---------- *)

let test_genspace_dim_counts () =
  let g =
    Sac.Genspace.of_bounds ~step:[| 3; 1 |] [| 0; 0 |] [| 10; 4 |]
  in
  Alcotest.(check (list int)) "counts" [ 4; 4 ]
    (Array.to_list (Sac.Genspace.dim_counts g));
  Alcotest.(check int) "product = count" (Sac.Genspace.count g)
    (Array.fold_left ( * ) 1 (Sac.Genspace.dim_counts g))

let test_genspace_dim_map_affine () =
  let g = Sac.Genspace.of_bounds ~step:[| 3 |] [| 2 |] [| 14 |] in
  match Sac.Genspace.dim_map g 0 with
  | Some (Sac.Genspace.Affine { lb; step }) ->
      Alcotest.(check (pair int int)) "lb/step" (2, 3) (lb, step)
  | _ -> Alcotest.fail "expected affine map"

let test_genspace_dim_map_blocked () =
  let g =
    Sac.Genspace.of_bounds ~step:[| 4 |] ~width:[| 2 |] [| 0 |] [| 16 |]
  in
  (match Sac.Genspace.dim_map g 0 with
  | Some (Sac.Genspace.Blocked { lb; step; width }) ->
      Alcotest.(check (list int)) "lb/step/width" [ 0; 4; 2 ]
        [ lb; step; width ]
  | _ -> Alcotest.fail "expected blocked map");
  (* Verify the closed form against enumeration. *)
  let members = ref [] in
  Sac.Genspace.iter g (fun idx -> members := idx.(0) :: !members);
  let members = List.rev !members in
  let formula t = 0 + (4 * (t / 2)) + (t mod 2) in
  Alcotest.(check (list int)) "closed form = enumeration" members
    (List.init (List.length members) formula)

let test_genspace_truncated_block () =
  (* ub cuts the last width-3 block short: no closed form. *)
  let g =
    Sac.Genspace.of_bounds ~step:[| 4 |] ~width:[| 3 |] [| 0 |] [| 10 |]
  in
  Alcotest.(check bool) "no closed form" true
    (Sac.Genspace.dim_map g 0 = None);
  (* Counting still works by enumeration: 0,1,2, 4,5,6, 8,9. *)
  Alcotest.(check int) "count" 8 (Sac.Genspace.count g)

(* ---------- Properties ---------- *)

let prop_pipeline_preserves =
  QCheck.Test.make ~name:"optimize preserves semantics (random frames)"
    ~count:8
    (QCheck.pair (QCheck.int_range 0 300) QCheck.bool)
    (fun (n, generic) ->
      let plane = plane_of n in
      let fd, _ = optimize ~generic ~filter:`H () in
      Sac.Value.equal
        (run_fd fd (Sac.Value.Varr plane))
        (Sac.Value.Varr (Video.Downscaler.horizontal plane)))

let prop_split_preserves =
  QCheck.Test.make ~name:"generator splitting preserves results" ~count:6
    (QCheck.int_range 0 300) (fun n ->
      let fd, _ = optimize ~generic:false ~filter:`H () in
      match scalarized_withloops fd with
      | [ (_, sw) ] ->
          let plane = plane_of n in
          let bindings =
            [ ("frame", Sac.Value.Varr plane);
              ("result_init",
               Sac.Value.Varr (Tensor.create sw.Sac.Scalarize.frame 0)) ]
          in
          let a = eval_swith_simple sw ~bindings in
          let b =
            eval_swith_simple (Sac.Split_gens.normalize sw) ~bindings
          in
          Tensor.equal Int.equal a b
      | _ -> false)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pipeline_preserves; prop_split_preserves ]

let () =
  Alcotest.run "sac-optimizer"
    [
      ( "inline",
        [
          Alcotest.test_case "nested call rejected" `Quick test_inline_simple;
          Alcotest.test_case "semantics" `Quick test_inline_preserves_semantics;
          Alcotest.test_case "recursion" `Quick test_inline_recursion_rejected;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "folds tiler arithmetic" `Quick
            test_simplify_folds_tiler_arith;
          Alcotest.test_case "eval_closed" `Quick test_simplify_eval_closed;
          Alcotest.test_case "semantics" `Quick
            test_simplify_preserves_semantics;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes dead" `Quick test_dce_removes_dead;
          Alcotest.test_case "keeps update chains" `Quick
            test_dce_keeps_update_chains;
        ] );
      ( "wlf",
        [
          Alcotest.test_case "fuses H" `Quick test_wlf_fuses_nongeneric_h;
          Alcotest.test_case "fuses V" `Quick test_wlf_fuses_nongeneric_v;
          Alcotest.test_case "partial on generic" `Quick
            test_wlf_partial_on_generic;
          Alcotest.test_case "full chain" `Quick test_wlf_full_chain;
          Alcotest.test_case "preserves H" `Quick test_wlf_preserves_h;
          Alcotest.test_case "preserves V" `Quick test_wlf_preserves_v;
          Alcotest.test_case "preserves generic" `Quick
            test_wlf_preserves_generic;
        ] );
      ( "scalarize",
        [
          Alcotest.test_case "H: 5 generators" `Quick
            test_scalarize_h_structure;
          Alcotest.test_case "V: 7 generators" `Quick
            test_scalarize_v_structure;
          Alcotest.test_case "split partitions" `Quick test_split_partitions;
          Alcotest.test_case "semantics" `Quick test_scalarize_semantics;
        ] );
      ( "genspace",
        [
          Alcotest.test_case "dim counts" `Quick test_genspace_dim_counts;
          Alcotest.test_case "affine map" `Quick test_genspace_dim_map_affine;
          Alcotest.test_case "blocked map" `Quick test_genspace_dim_map_blocked;
          Alcotest.test_case "truncated block" `Quick
            test_genspace_truncated_block;
        ] );
      ("properties", props);
    ]
