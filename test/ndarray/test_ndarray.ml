open Ndarray

let shape = Alcotest.testable (Fmt.of_to_string Shape.to_string) Shape.equal

let index = Alcotest.testable (Fmt.of_to_string Index.to_string) ( = )

let int_tensor =
  Alcotest.testable (Tensor.pp Fmt.int) (Tensor.equal Int.equal)

(* ---------- Shape ---------- *)

let test_shape_size () =
  Alcotest.(check int) "scalar" 1 (Shape.size Shape.scalar);
  Alcotest.(check int) "2x3" 6 (Shape.size [| 2; 3 |]);
  Alcotest.(check int) "empty extent" 0 (Shape.size [| 4; 0; 2 |]);
  Alcotest.(check int) "paper frame" (1080 * 1920) (Shape.size [| 1080; 1920 |])

let test_shape_concat () =
  Alcotest.check shape "rep ++ pattern" [| 1080; 240; 11 |]
    (Shape.concat [| 1080; 240 |] [| 11 |]);
  Alcotest.check shape "scalar left" [| 5 |] (Shape.concat Shape.scalar [| 5 |])

let test_shape_take_drop () =
  Alcotest.check shape "take" [| 1080; 240 |] (Shape.take 2 [| 1080; 240; 11 |]);
  Alcotest.check shape "drop" [| 11 |] (Shape.drop 2 [| 1080; 240; 11 |]);
  Alcotest.check shape "take 0" [||] (Shape.take 0 [| 3 |]);
  Alcotest.check_raises "take too many" (Invalid_argument "Shape.take")
    (fun () -> ignore (Shape.take 2 [| 3 |]))

let test_shape_valid () =
  Alcotest.(check bool) "valid" true (Shape.is_valid [| 0; 3 |]);
  Alcotest.(check bool) "negative" false (Shape.is_valid [| 2; -1 |])

(* ---------- Index ---------- *)

let test_ravel_examples () =
  Alcotest.(check int) "origin" 0 (Index.ravel [| 4; 5 |] [| 0; 0 |]);
  Alcotest.(check int) "row major" 7 (Index.ravel [| 4; 5 |] [| 1; 2 |]);
  Alcotest.(check int) "last" 19 (Index.ravel [| 4; 5 |] [| 3; 4 |]);
  Alcotest.(check int) "3d" (2 * 20 + 3 * 5 + 4)
    (Index.ravel [| 3; 4; 5 |] [| 2; 3; 4 |])

let test_unravel_examples () =
  Alcotest.check index "7 in 4x5" [| 1; 2 |] (Index.unravel [| 4; 5 |] 7);
  Alcotest.check index "0" [| 0; 0; 0 |] (Index.unravel [| 3; 4; 5 |] 0)

let test_wrap () =
  Alcotest.check index "positive mod" [| 1; 2 |]
    (Index.wrap [| 4; 5 |] [| 5; -3 |]);
  Alcotest.check index "identity in bounds" [| 3; 4 |]
    (Index.wrap [| 4; 5 |] [| 3; 4 |])

let test_in_bounds () =
  Alcotest.(check bool) "yes" true (Index.in_bounds [| 4; 5 |] [| 3; 4 |]);
  Alcotest.(check bool) "no high" false (Index.in_bounds [| 4; 5 |] [| 4; 0 |]);
  Alcotest.(check bool) "no negative" false
    (Index.in_bounds [| 4; 5 |] [| 0; -1 |]);
  Alcotest.(check bool) "rank mismatch" false (Index.in_bounds [| 4 |] [| 0; 0 |])

let test_iter_order () =
  let seen = ref [] in
  Index.iter [| 2; 2 |] (fun i -> seen := Array.to_list i :: !seen);
  Alcotest.(check (list (list int)))
    "row-major order"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    (List.rev !seen)

let test_iter_empty () =
  let n = ref 0 in
  Index.iter [| 3; 0 |] (fun _ -> incr n);
  Alcotest.(check int) "no iterations over empty space" 0 !n;
  Index.iter [||] (fun _ -> incr n);
  Alcotest.(check int) "scalar space has one point" 1 !n

let test_add_sub () =
  Alcotest.check index "add" [| 4; 6 |] (Index.add [| 1; 2 |] [| 3; 4 |]);
  Alcotest.check index "sub" [| -2; -2 |] (Index.sub [| 1; 2 |] [| 3; 4 |])

(* ---------- Linalg ---------- *)

let test_mv () =
  (* The paper's horizontal-filter paving {{1,0},{0,8}} maps repetition
     (i,j) to reference (i, 8j). *)
  let paving = Linalg.of_lists [ [ 1; 0 ]; [ 0; 8 ] ] in
  Alcotest.check index "paving ref" [| 7; 48 |] (Linalg.mv paving [| 7; 6 |]);
  let fitting = Linalg.of_lists [ [ 0 ]; [ 1 ] ] in
  Alcotest.check index "fitting step" [| 0; 5 |] (Linalg.mv fitting [| 5 |])

let test_cat_cols () =
  let p = Linalg.of_lists [ [ 1; 0 ]; [ 0; 8 ] ] in
  let f = Linalg.of_lists [ [ 0 ]; [ 1 ] ] in
  let c = Linalg.cat_cols p f in
  Alcotest.(check (list (list int)))
    "CAT(paving,fitting)"
    [ [ 1; 0; 0 ]; [ 0; 8; 1 ] ]
    (Linalg.to_lists c);
  (* CAT(P,F) . (rep ++ pat) = P.rep + F.pat, as used in input_tiler. *)
  let rep = [| 3; 5 |] and pat = [| 9 |] in
  Alcotest.check index "cat mv = mv + mv"
    (Index.add (Linalg.mv p rep) (Linalg.mv f pat))
    (Linalg.mv c (Array.append rep pat))

let test_mm_identity () =
  let m = Linalg.of_lists [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ] in
  Alcotest.(check (list (list int)))
    "I.m = m" (Linalg.to_lists m)
    (Linalg.to_lists (Linalg.mm (Linalg.identity 3) m));
  Alcotest.(check (list (list int)))
    "m.I = m" (Linalg.to_lists m)
    (Linalg.to_lists (Linalg.mm m (Linalg.identity 2)))

let test_transpose () =
  let m = Linalg.of_lists [ [ 1; 2; 3 ]; [ 4; 5; 6 ] ] in
  Alcotest.(check (list (list int)))
    "transpose"
    [ [ 1; 4 ]; [ 2; 5 ]; [ 3; 6 ] ]
    (Linalg.to_lists (Linalg.transpose m))

let test_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Linalg.of_lists")
    (fun () -> ignore (Linalg.of_lists [ [ 1; 2 ]; [ 3 ] ]))

(* ---------- Tensor ---------- *)

let test_tensor_init_get () =
  let t = Tensor.init [| 3; 4 |] (fun i -> (10 * i.(0)) + i.(1)) in
  Alcotest.(check int) "get" 23 (Tensor.get t [| 2; 3 |]);
  Alcotest.(check int) "get_lin" 23 (Tensor.get_lin t 11);
  Alcotest.(check int) "size" 12 (Tensor.size t)

let test_tensor_set () =
  let t = Tensor.create [| 2; 2 |] 0 in
  Tensor.set t [| 1; 0 |] 42;
  Alcotest.(check int) "set/get" 42 (Tensor.get t [| 1; 0 |]);
  Alcotest.(check int) "others untouched" 0 (Tensor.get t [| 0; 0 |])

let test_tensor_wrapped () =
  let t = Tensor.init [| 4; 6 |] (fun i -> (10 * i.(0)) + i.(1)) in
  Alcotest.(check int) "wrap both" (Tensor.get t [| 1; 2 |])
    (Tensor.get_wrapped t [| 5; 8 |])

let test_tensor_map2_equal () =
  let a = Tensor.init [| 5 |] (fun i -> i.(0)) in
  let b = Tensor.map (fun x -> x * 2) a in
  let s = Tensor.map2 ( + ) a b in
  Alcotest.check int_tensor "map2"
    (Tensor.init [| 5 |] (fun i -> 3 * i.(0)))
    s

let test_tensor_tiles () =
  (* A 2x3 outer space of 2-element tiles. *)
  let t = Tensor.init [| 2; 3; 2 |] (fun i -> Index.ravel [| 2; 3; 2 |] i) in
  let tile = Tensor.sub_tile t ~outer:[| 1; 2 |] ~inner_rank:1 in
  Alcotest.check int_tensor "sub_tile" (Tensor.of_list_1d [ 10; 11 ]) tile;
  let fresh = Tensor.create [| 2; 3; 2 |] 0 in
  Tensor.set_tile fresh ~outer:[| 1; 2 |] tile;
  Alcotest.(check int) "set_tile wrote" 11 (Tensor.get fresh [| 1; 2; 1 |]);
  Alcotest.(check int) "set_tile only tile" 0 (Tensor.get fresh [| 0; 0; 0 |])

let test_tensor_reshape () =
  let t = Tensor.init [| 2; 3 |] (fun i -> Index.ravel [| 2; 3 |] i) in
  let r = Tensor.reshape t [| 3; 2 |] in
  Alcotest.(check int) "reshape preserves linear order" 3
    (Tensor.get r [| 1; 1 |]);
  Alcotest.check_raises "bad reshape" (Invalid_argument "Tensor.reshape")
    (fun () -> ignore (Tensor.reshape t [| 4; 2 |]))

let test_tensor_of_list_2d () =
  let t = Tensor.of_list_2d [ [ 1; 2; 3 ]; [ 4; 5; 6 ] ] in
  Alcotest.check shape "shape" [| 2; 3 |] (Tensor.shape t);
  Alcotest.(check int) "elem" 6 (Tensor.get t [| 1; 2 |])

let test_tensor_mapi () =
  let t = Tensor.create [| 2; 2 |] 1 in
  let u = Tensor.mapi (fun i v -> v + Index.ravel [| 2; 2 |] i) t in
  Alcotest.check int_tensor "mapi"
    (Tensor.of_list_2d [ [ 1; 2 ]; [ 3; 4 ] ])
    u

(* ---------- Properties ---------- *)

let small_shape_gen =
  QCheck.Gen.(
    list_size (int_range 1 3) (int_range 1 6) >|= fun l -> Array.of_list l)

let arb_shape = QCheck.make ~print:Shape.to_string small_shape_gen

let arb_shape_index =
  let gen =
    QCheck.Gen.(
      small_shape_gen >>= fun s ->
      let idx =
        Array.to_list s
        |> List.map (fun e -> int_range 0 (e - 1))
        |> flatten_l >|= Array.of_list
      in
      idx >|= fun i -> (s, i))
  in
  QCheck.make
    ~print:(fun (s, i) -> Shape.to_string s ^ " @ " ^ Index.to_string i)
    gen

let prop_ravel_unravel =
  QCheck.Test.make ~name:"unravel (ravel i) = i" ~count:500 arb_shape_index
    (fun (s, i) -> Index.unravel s (Index.ravel s i) = i)

let prop_ravel_bounds =
  QCheck.Test.make ~name:"0 <= ravel i < size" ~count:500 arb_shape_index
    (fun (s, i) ->
      let r = Index.ravel s i in
      r >= 0 && r < Shape.size s)

let prop_wrap_in_bounds =
  QCheck.Test.make ~name:"wrap lands in bounds" ~count:500
    (QCheck.pair arb_shape (QCheck.list_of_size (QCheck.Gen.return 0) QCheck.int))
    (fun (s, _) ->
      let idx = Array.map (fun e -> (-3 * e) + 1) s in
      Index.in_bounds s (Index.wrap s idx))

let prop_iter_counts =
  QCheck.Test.make ~name:"iter visits size-many indices" ~count:200 arb_shape
    (fun s ->
      let n = ref 0 in
      Index.iter s (fun _ -> incr n);
      !n = Shape.size s)

let prop_mv_linear =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let vec n = list_repeat n (int_range (-4) 4) >|= Array.of_list in
        int_range 1 3 >>= fun r ->
        int_range 1 3 >>= fun c ->
        list_repeat r (vec c) >>= fun m ->
        vec c >>= fun v1 ->
        vec c >|= fun v2 -> (Array.of_list m, v1, v2))
  in
  QCheck.Test.make ~name:"mv is linear: M(a+b) = Ma + Mb" ~count:300 arb
    (fun (m, a, b) ->
      Linalg.mv m (Index.add a b)
      = Index.add (Linalg.mv m a) (Linalg.mv m b))

let prop_tensor_init_get =
  QCheck.Test.make ~name:"init f |> get i = f i" ~count:300 arb_shape_index
    (fun (s, i) ->
      let t = Tensor.init s (fun idx -> Index.ravel s idx * 7) in
      Tensor.get t i = Index.ravel s i * 7)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_ravel_unravel;
      prop_ravel_bounds;
      prop_wrap_in_bounds;
      prop_iter_counts;
      prop_mv_linear;
      prop_tensor_init_get;
    ]

let () =
  Alcotest.run "ndarray"
    [
      ( "shape",
        [
          Alcotest.test_case "size" `Quick test_shape_size;
          Alcotest.test_case "concat" `Quick test_shape_concat;
          Alcotest.test_case "take/drop" `Quick test_shape_take_drop;
          Alcotest.test_case "validity" `Quick test_shape_valid;
        ] );
      ( "index",
        [
          Alcotest.test_case "ravel" `Quick test_ravel_examples;
          Alcotest.test_case "unravel" `Quick test_unravel_examples;
          Alcotest.test_case "wrap" `Quick test_wrap;
          Alcotest.test_case "in_bounds" `Quick test_in_bounds;
          Alcotest.test_case "iteration order" `Quick test_iter_order;
          Alcotest.test_case "empty iteration" `Quick test_iter_empty;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "mv" `Quick test_mv;
          Alcotest.test_case "cat_cols" `Quick test_cat_cols;
          Alcotest.test_case "mm identity" `Quick test_mm_identity;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "ragged rejected" `Quick test_ragged_rejected;
        ] );
      ( "tensor",
        [
          Alcotest.test_case "init/get" `Quick test_tensor_init_get;
          Alcotest.test_case "set" `Quick test_tensor_set;
          Alcotest.test_case "wrapped get" `Quick test_tensor_wrapped;
          Alcotest.test_case "map2" `Quick test_tensor_map2_equal;
          Alcotest.test_case "tiles" `Quick test_tensor_tiles;
          Alcotest.test_case "reshape" `Quick test_tensor_reshape;
          Alcotest.test_case "of_list_2d" `Quick test_tensor_of_list_2d;
          Alcotest.test_case "mapi" `Quick test_tensor_mapi;
        ] );
      ("properties", props);
    ]
