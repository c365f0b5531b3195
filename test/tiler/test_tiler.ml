open Ndarray

let index = Alcotest.testable (Fmt.of_to_string Index.to_string) ( = )

let int_tensor = Alcotest.testable (Tensor.pp Fmt.int) (Tensor.equal Int.equal)

(* The paper's horizontal-filter tilers (Figure 10), scaled down: instead
   of a 1080x1920 frame we use rows x (8*reps) so the suite stays fast
   while exercising exactly the same origin/fitting/paving structure. *)
let h_input_spec ~rows ~reps =
  Tiler.spec ~origin:[| 0; 0 |]
    ~fitting:(Linalg.of_lists [ [ 0 ]; [ 1 ] ])
    ~paving:(Linalg.of_lists [ [ 1; 0 ]; [ 0; 8 ] ])
    ~array_shape:[| rows; 8 * reps |]
    ~pattern_shape:[| 11 |]
    ~repetition_shape:[| rows; reps |]

let h_output_spec ~rows ~reps =
  Tiler.spec ~origin:[| 0; 0 |]
    ~fitting:(Linalg.of_lists [ [ 0 ]; [ 1 ] ])
    ~paving:(Linalg.of_lists [ [ 1; 0 ]; [ 0; 3 ] ])
    ~array_shape:[| rows; 3 * reps |]
    ~pattern_shape:[| 3 |]
    ~repetition_shape:[| rows; reps |]

let test_validate_good () =
  let s = h_input_spec ~rows:4 ~reps:3 in
  match Tiler.validate s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "expected valid spec, got: %s" m

let test_validate_bad_origin () =
  Alcotest.(check bool) "origin rank mismatch rejected" true
    (match
       Tiler.validate
         {
           tiler =
             Tiler.make ~origin:[| 0 |]
               ~fitting:(Linalg.of_lists [ [ 0 ]; [ 1 ] ])
               ~paving:(Linalg.of_lists [ [ 1; 0 ]; [ 0; 8 ] ]);
           array_shape = [| 4; 8 |];
           pattern_shape = [| 3 |];
           repetition_shape = [| 4; 1 |];
         }
     with
    | Error _ -> true
    | Ok () -> false)

let test_validate_bad_fitting () =
  Alcotest.check_raises "spec raises"
    (Invalid_argument
       "Tiler.spec: fitting has 2 columns, pattern rank is 1") (fun () ->
      ignore
        (Tiler.spec ~origin:[| 0; 0 |]
           ~fitting:(Linalg.of_lists [ [ 0; 1 ]; [ 1; 0 ] ])
           ~paving:(Linalg.of_lists [ [ 1; 0 ]; [ 0; 8 ] ])
           ~array_shape:[| 4; 8 |] ~pattern_shape:[| 3 |]
           ~repetition_shape:[| 4; 1 |]))

let test_ref_index () =
  let s = h_input_spec ~rows:4 ~reps:3 in
  Alcotest.check index "rep (2,1) -> (2,8)" [| 2; 8 |]
    (Tiler.ref_index s [| 2; 1 |]);
  Alcotest.check index "rep (0,0) -> origin" [| 0; 0 |]
    (Tiler.ref_index s [| 0; 0 |])

let test_elem_index () =
  let s = h_input_spec ~rows:4 ~reps:3 in
  Alcotest.check index "pattern walks columns" [| 1; 13 |]
    (Tiler.elem_index s ~rep:[| 1; 1 |] ~pat:[| 5 |]);
  (* Last repetition: pattern element 10 starts at col 16 and reaches 26,
     which wraps modulo 24 to column 2. *)
  Alcotest.check index "wrap at right edge" [| 0; 2 |]
    (Tiler.elem_index s ~rep:[| 0; 2 |] ~pat:[| 10 |])

let test_gather () =
  let s = h_input_spec ~rows:2 ~reps:2 in
  let frame = Tensor.init [| 2; 16 |] (fun i -> (100 * i.(0)) + i.(1)) in
  let tile = Tiler.gather frame s ~rep:[| 1; 1 |] in
  Alcotest.check int_tensor "11 consecutive pixels from col 8 (wrapping)"
    (Tensor.of_list_1d
       [ 108; 109; 110; 111; 112; 113; 114; 115; 100; 101; 102 ])
    tile

let test_gather_all_shape () =
  let s = h_input_spec ~rows:2 ~reps:2 in
  let frame = Tensor.init [| 2; 16 |] (fun i -> (100 * i.(0)) + i.(1)) in
  let all = Tiler.gather_all frame s in
  Alcotest.(check (list int))
    "shape = repetition ++ pattern" [ 2; 2; 11 ]
    (Array.to_list (Tensor.shape all));
  Alcotest.(check int) "spot check" 113 (Tensor.get all [| 1; 1; 5 |])

let test_scatter_all_roundtrip () =
  (* Output tiler is an exact cover, so gather_all then scatter_all is the
     identity on the output frame. *)
  let s = h_output_spec ~rows:3 ~reps:4 in
  let frame = Tensor.init [| 3; 12 |] (fun i -> (50 * i.(0)) + i.(1)) in
  let tiles = Tiler.gather_all frame s in
  let out = Tensor.create [| 3; 12 |] (-1) in
  Tiler.scatter_all out s tiles;
  Alcotest.check int_tensor "roundtrip" frame out

let test_exact_cover () =
  Alcotest.(check bool) "output tiler is exact" true
    (Tiler.is_exact_cover (h_output_spec ~rows:3 ~reps:4));
  Alcotest.(check bool) "input tiler overlaps (11 over stride 8)" false
    (Tiler.is_exact_cover (h_input_spec ~rows:3 ~reps:4));
  Alcotest.(check bool) "input tiler still covers" true
    (Tiler.covers_array (h_input_spec ~rows:3 ~reps:4))

let test_coverage_counts () =
  let s = h_input_spec ~rows:1 ~reps:2 in
  let cov = Tiler.coverage s in
  (* Each of 2 repetitions reads 11 of 16 columns: total count 22. *)
  Alcotest.(check int) "total multiplicity" 22
    (Tensor.fold ( + ) 0 cov);
  (* Columns 0..2 are read twice (once in place, once wrapped). *)
  Alcotest.(check int) "wrapped col read twice" 2 (Tensor.get cov [| 0; 0 |]);
  Alcotest.(check int) "mid col read once" 1 (Tensor.get cov [| 0; 5 |])

let test_vertical_tilers () =
  (* Vertical filter: packets of 9 rows -> 4 rows, 14-point pattern. *)
  let rows = 18 and cols = 5 in
  let input =
    Tiler.spec ~origin:[| 0; 0 |]
      ~fitting:(Linalg.of_lists [ [ 1 ]; [ 0 ] ])
      ~paving:(Linalg.of_lists [ [ 9; 0 ]; [ 0; 1 ] ])
      ~array_shape:[| rows; cols |] ~pattern_shape:[| 14 |]
      ~repetition_shape:[| rows / 9; cols |]
  in
  let output =
    Tiler.spec ~origin:[| 0; 0 |]
      ~fitting:(Linalg.of_lists [ [ 1 ]; [ 0 ] ])
      ~paving:(Linalg.of_lists [ [ 4; 0 ]; [ 0; 1 ] ])
      ~array_shape:[| rows / 9 * 4; cols |] ~pattern_shape:[| 4 |]
      ~repetition_shape:[| rows / 9; cols |]
  in
  Alcotest.(check bool) "vertical output tiler exact" true
    (Tiler.is_exact_cover output);
  Alcotest.(check bool) "vertical input covers" true
    (Tiler.covers_array input);
  let frame = Tensor.init [| rows; cols |] (fun i -> (10 * i.(0)) + i.(1)) in
  let tile = Tiler.gather frame input ~rep:[| 1; 2 |] in
  Alcotest.(check int) "walks rows from row 9, col fixed" 132
    (Tensor.get tile [| 4 |])

(* ---------- Properties ---------- *)

(* Random 1-d block tilers: pattern p scattered with paving step p over an
   array of n*p elements — always an exact cover. *)
let arb_block_tiler =
  let gen =
    QCheck.Gen.(
      int_range 1 5 >>= fun p ->
      int_range 1 6 >>= fun n ->
      int_range 0 (p - 1) >|= fun o -> (p, n, o))
  in
  QCheck.make
    ~print:(fun (p, n, o) -> Printf.sprintf "pattern=%d reps=%d origin=%d" p n o)
    gen

let block_spec (p, n, o) =
  Tiler.spec ~origin:[| o |]
    ~fitting:(Linalg.of_lists [ [ 1 ] ])
    ~paving:(Linalg.of_lists [ [ p ] ])
    ~array_shape:[| n * p |] ~pattern_shape:[| p |]
    ~repetition_shape:[| n |]

let prop_block_exact =
  QCheck.Test.make ~name:"block tilers are exact covers" ~count:200
    arb_block_tiler (fun t -> Tiler.is_exact_cover (block_spec t))

let prop_gather_scatter_id =
  QCheck.Test.make ~name:"scatter_all . gather_all = id on exact covers"
    ~count:200 arb_block_tiler (fun t ->
      let s = block_spec t in
      let arr =
        Tensor.init s.Tiler.array_shape (fun i -> (i.(0) * 13) + 7)
      in
      let out = Tensor.create s.Tiler.array_shape (-1) in
      Tiler.scatter_all out s (Tiler.gather_all arr s);
      Tensor.equal Int.equal arr out)

let prop_coverage_total =
  QCheck.Test.make
    ~name:"total coverage = |repetition| * |pattern|" ~count:200
    arb_block_tiler (fun t ->
      let s = block_spec t in
      Tensor.fold ( + ) 0 (Tiler.coverage s)
      = Shape.size s.Tiler.repetition_shape * Shape.size s.Tiler.pattern_shape)

let prop_elem_in_bounds =
  QCheck.Test.make ~name:"elem_index always lands in the array" ~count:200
    arb_block_tiler (fun t ->
      let s = block_spec t in
      let ok = ref true in
      Index.iter s.Tiler.repetition_shape (fun rep ->
          Index.iter s.Tiler.pattern_shape (fun pat ->
              if
                not
                  (Index.in_bounds s.Tiler.array_shape
                     (Tiler.elem_index s ~rep ~pat))
              then ok := false));
      !ok)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_block_exact;
      prop_gather_scatter_id;
      prop_coverage_total;
      prop_elem_in_bounds;
    ]

let () =
  Alcotest.run "tiler"
    [
      ( "validation",
        [
          Alcotest.test_case "good spec" `Quick test_validate_good;
          Alcotest.test_case "bad origin" `Quick test_validate_bad_origin;
          Alcotest.test_case "bad fitting" `Quick test_validate_bad_fitting;
        ] );
      ( "indexing",
        [
          Alcotest.test_case "ref_index" `Quick test_ref_index;
          Alcotest.test_case "elem_index" `Quick test_elem_index;
        ] );
      ( "gather-scatter",
        [
          Alcotest.test_case "gather" `Quick test_gather;
          Alcotest.test_case "gather_all" `Quick test_gather_all_shape;
          Alcotest.test_case "scatter roundtrip" `Quick
            test_scatter_all_roundtrip;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "exact cover" `Quick test_exact_cover;
          Alcotest.test_case "counts" `Quick test_coverage_counts;
          Alcotest.test_case "vertical tilers" `Quick test_vertical_tilers;
        ] );
      ("properties", props);
    ]
