open Ndarray

let rows = 18

let cols = 16

let h_cols = cols / 8 * 3

let out_rows = rows / 9 * 4

let plane_of n =
  Video.Frame.plane
    (Video.Framegen.frame { Video.Format.name = "s"; rows; cols } n)
    Video.Frame.R

let tensor_eq = Tensor.equal Int.equal

(* ---------- IPs ---------- *)

let test_ip_matches_reference_windows () =
  (* The registered IPs implement exactly the Video.Downscaler
     interpolation. *)
  let pattern = Array.init 11 (fun i -> (i * 17) mod 251) in
  let got = Arrayol.Ip.horizontal_reduction.Arrayol.Ip.apply pattern in
  let expected =
    Array.map
      (fun off ->
        let sum = ref 0 in
        for t = 0 to Video.Downscaler.window_len - 1 do
          sum := !sum + pattern.(off + t)
        done;
        Video.Downscaler.interpolate !sum)
      Video.Downscaler.h_window_offsets
  in
  Alcotest.(check (array int)) "horizontal windows" expected got

let test_ip_registry () =
  Alcotest.(check bool) "registered" true
    (Arrayol.Ip.mem "HorizontalReduction");
  Alcotest.(check bool) "unknown" false (Arrayol.Ip.mem "nope");
  Alcotest.(check bool) "duplicate rejected" true
    (try
       Arrayol.Ip.register Arrayol.Ip.horizontal_reduction;
       false
     with Invalid_argument _ -> true)

let test_ip_arity_check () =
  Alcotest.(check bool) "wrong pattern length rejected" true
    (try
       ignore (Arrayol.Ip.vertical_reduction.Arrayol.Ip.apply (Array.make 3 0));
       false
     with Invalid_argument _ -> true)

(* ---------- Model & validation ---------- *)

let test_validate_downscaler () =
  List.iter
    (fun m ->
      match Arrayol.Validate.check m with
      | [] -> ()
      | issues ->
          Alcotest.failf "unexpected issues: %s"
            (String.concat "; "
               (List.map
                  (Format.asprintf "%a" Arrayol.Validate.pp_issue)
                  issues)))
    [
      Arrayol.Downscaler_model.horizontal ~rows ~cols;
      Arrayol.Downscaler_model.vertical ~rows:18 ~cols:h_cols;
      Arrayol.Downscaler_model.plane ~rows ~cols;
      Arrayol.Downscaler_model.frame ~rows ~cols;
    ]

let test_validate_unknown_ip () =
  let bad =
    Arrayol.Model.Elementary
      {
        name = "bad";
        ip = "NoSuchIp";
        inputs = [ { Arrayol.Model.pname = "i"; pshape = [| 3 |] } ];
        outputs = [ { Arrayol.Model.pname = "o"; pshape = [| 1 |] } ];
      }
  in
  Alcotest.(check bool) "issue reported" true
    (Arrayol.Validate.check bad <> [])

let test_validate_nonexact_output_tiler () =
  (* An output tiler with paving step 2 but pattern 1 writes only every
     other element: not an exact cover. *)
  let inner =
    Arrayol.Model.Elementary
      {
        name = "copy1";
        ip = "HorizontalReduction";
        inputs = [ { Arrayol.Model.pname = "pattern_in"; pshape = [| 11 |] } ];
        outputs = [ { Arrayol.Model.pname = "pattern_out"; pshape = [| 3 |] } ];
      }
  in
  let bad =
    Arrayol.Model.Repetitive
      {
        name = "bad_rep";
        repetition = [| 2 |];
        inner;
        in_tilings =
          [
            {
              Arrayol.Model.outer_port = "in";
              inner_port = "pattern_in";
              tiler =
                Tiler.make ~origin:[| 0 |]
                  ~fitting:(Linalg.of_lists [ [ 1 ] ])
                  ~paving:(Linalg.of_lists [ [ 8 ] ]);
            };
          ];
        out_tilings =
          [
            {
              Arrayol.Model.outer_port = "out";
              inner_port = "pattern_out";
              tiler =
                Tiler.make ~origin:[| 0 |]
                  ~fitting:(Linalg.of_lists [ [ 2 ] ])  (* gaps! *)
                  ~paving:(Linalg.of_lists [ [ 6 ] ]);
            };
          ];
        inputs = [ { Arrayol.Model.pname = "in"; pshape = [| 16 |] } ];
        outputs = [ { Arrayol.Model.pname = "out"; pshape = [| 12 |] } ];
      }
  in
  Alcotest.(check bool) "non-exact cover reported" true
    (List.exists
       (fun (i : Arrayol.Validate.issue) ->
         let needle = "exact cover" in
         let m = i.Arrayol.Validate.what in
         let nl = String.length needle and hl = String.length m in
         let rec go j = (j + nl <= hl) && (String.sub m j nl = needle || go (j + 1)) in
         go 0)
       (Arrayol.Validate.check bad));
  (* Issues carry the caller's location in the shared file:where: what
     shape. *)
  (match Arrayol.Validate.check ~loc:"mean.aol" bad with
  | i :: _ ->
      Alcotest.(check string) "loc threaded" "mean.aol" i.Arrayol.Validate.loc;
      Alcotest.(check bool) "pp prefixes loc" true
        (let s = Format.asprintf "%a" Arrayol.Validate.pp_issue i in
         String.length s > 9 && String.sub s 0 9 = "mean.aol:")
  | [] -> Alcotest.fail "expected issues")

(* Covers are decided at every size: the 1080x1920 frame of Figure 10
   (2,073,600-element planes) is proved, and a horizontal input tiler
   paving by 16 instead of 8 leaves columns unread. *)
let test_validate_paper_scale () =
  let frame = Arrayol.Downscaler_model.frame ~rows:1080 ~cols:1920 in
  Alcotest.(check (list string)) "1080p frame validates clean" []
    (List.map (fun i -> i.Arrayol.Validate.what) (Arrayol.Validate.check frame));
  let pave16 = function
    | Arrayol.Model.Repetitive ({ in_tilings = [ t ]; _ } as r) ->
        let tiler = { t.Arrayol.Model.tiler with Tiler.paving = Linalg.of_lists [ [ 1; 0 ]; [ 0; 16 ] ] } in
        Arrayol.Model.Repetitive { r with in_tilings = [ { t with tiler } ] }
    | t -> t
  in
  let bad =
    match frame with
    | Arrayol.Model.Compound ({ parts = (inst, hf) :: rest; _ } as c) ->
        Arrayol.Model.Compound { c with parts = (inst, pave16 hf) :: rest }
    | _ -> Alcotest.fail "frame is a compound"
  in
  Alcotest.(check (list string)) "unread columns reported"
    [ "input tiler on port pattern_in does not read the whole array" ]
    (List.map (fun i -> i.Arrayol.Validate.what) (Arrayol.Validate.check bad))

let test_validate_cycle () =
  let dummy name =
    Arrayol.Model.Elementary
      {
        name;
        ip = "HorizontalReduction";
        inputs = [ { Arrayol.Model.pname = "i"; pshape = [| 11 |] } ];
        outputs = [ { Arrayol.Model.pname = "o"; pshape = [| 3 |] } ];
      }
  in
  let cyclic =
    Arrayol.Model.Compound
      {
        name = "cycle";
        parts = [ ("a", dummy "a"); ("b", dummy "b") ];
        connections =
          [
            { Arrayol.Model.cfrom = Arrayol.Model.Part ("a", "o");
              cto = Arrayol.Model.Part ("b", "i") };
            { Arrayol.Model.cfrom = Arrayol.Model.Part ("b", "o");
              cto = Arrayol.Model.Part ("a", "i") };
          ];
        inputs = [];
        outputs = [];
      }
  in
  Alcotest.(check bool) "cycle reported" true
    (List.exists
       (fun (i : Arrayol.Validate.issue) ->
         let needle = "cycle" in
         let m = i.Arrayol.Validate.what in
         let nl = String.length needle and hl = String.length m in
         let rec go j = (j + nl <= hl) && (String.sub m j nl = needle || go (j + 1)) in
         go 0)
       (Arrayol.Validate.check cyclic))

(* ---------- Scheduling ---------- *)

let test_schedule_plane () =
  let schedule =
    Arrayol.Schedule.compute (Arrayol.Downscaler_model.plane ~rows ~cols)
  in
  (* hf must come before vf. *)
  let linear = List.concat schedule in
  let pos name =
    let rec go i = function
      | [] -> -1
      | (s : Arrayol.Schedule.step) :: rest ->
          if s.Arrayol.Schedule.instance = name then i else go (i + 1) rest
    in
    go 0 linear
  in
  Alcotest.(check bool) "hf before vf" true (pos "hf" < pos "vf");
  Alcotest.(check int) "two steps" 2 (List.length linear)

let test_schedule_frame_parallelism () =
  let schedule =
    Arrayol.Schedule.compute (Arrayol.Downscaler_model.frame ~rows ~cols)
  in
  (* Three independent plane chains: first level holds the three
     horizontal filters (task parallelism). *)
  (match schedule with
  | first :: _ ->
      Alcotest.(check int) "3 parallel H filters" 3 (List.length first)
  | [] -> Alcotest.fail "empty schedule");
  (* Data parallelism: each H filter exposes rows * cols/8 repetitions,
     each V filter rows/9 * h_cols. *)
  let expected =
    3 * ((rows * (cols / 8)) + (rows / 9 * h_cols))
  in
  Alcotest.(check int) "total potential parallelism" expected
    (Arrayol.Schedule.total_parallelism schedule)

(* ---------- Semantics ---------- *)

let test_semantics_horizontal () =
  let plane = plane_of 0 in
  let out =
    Arrayol.Semantics.run1
      (Arrayol.Downscaler_model.horizontal ~rows ~cols)
      plane
  in
  Alcotest.(check bool) "ArrayOL H = reference" true
    (tensor_eq out (Video.Downscaler.horizontal plane))

let test_semantics_vertical () =
  let plane = Video.Downscaler.horizontal (plane_of 1) in
  let out =
    Arrayol.Semantics.run1
      (Arrayol.Downscaler_model.vertical ~rows ~cols:h_cols)
      plane
  in
  Alcotest.(check bool) "ArrayOL V = reference" true
    (tensor_eq out (Video.Downscaler.vertical plane))

let test_semantics_plane_chain () =
  let plane = plane_of 2 in
  let out =
    Arrayol.Semantics.run1 (Arrayol.Downscaler_model.plane ~rows ~cols) plane
  in
  Alcotest.(check (list int)) "DVD-like shape" [ out_rows; h_cols ]
    (Array.to_list (Tensor.shape out));
  Alcotest.(check bool) "ArrayOL chain = reference" true
    (tensor_eq out (Video.Downscaler.plane plane))

let test_semantics_frame () =
  let frame = Video.Framegen.frame { Video.Format.name = "s"; rows; cols } 3 in
  let outs =
    Arrayol.Semantics.run
      (Arrayol.Downscaler_model.frame ~rows ~cols)
      ~inputs:
        [
          ("r_in", Video.Frame.plane frame Video.Frame.R);
          ("g_in", Video.Frame.plane frame Video.Frame.G);
          ("b_in", Video.Frame.plane frame Video.Frame.B);
        ]
  in
  let expected = Video.Downscaler.frame frame in
  List.iter
    (fun (port, channel) ->
      Alcotest.(check bool) (port ^ " matches") true
        (tensor_eq (List.assoc port outs) (Video.Frame.plane expected channel)))
    [ ("r_out", Video.Frame.R); ("g_out", Video.Frame.G); ("b_out", Video.Frame.B) ]

let test_semantics_missing_input () =
  Alcotest.(check bool) "missing input raises" true
    (try
       ignore
         (Arrayol.Semantics.run
            (Arrayol.Downscaler_model.plane ~rows ~cols)
            ~inputs:[]);
       false
     with Arrayol.Semantics.Exec_error _ -> true)

let test_semantics_wrong_shape () =
  Alcotest.(check bool) "wrong shape raises" true
    (try
       ignore
         (Arrayol.Semantics.run1
            (Arrayol.Downscaler_model.plane ~rows ~cols)
            (Tensor.create [| 3; 3 |] 0));
       false
     with Arrayol.Semantics.Exec_error _ -> true)

(* ---------- Refactoring (granularity blocking) ---------- *)

let test_block_structure () =
  let h = Arrayol.Downscaler_model.horizontal ~rows ~cols in
  match Arrayol.Refactor.block ~dim:1 ~factor:2 h with
  | Error m -> Alcotest.failf "blocking failed: %s" m
  | Ok blocked -> (
      match blocked with
      | Arrayol.Model.Repetitive { repetition; inner; _ } ->
          Alcotest.(check (list int)) "outer repetition halved along dim 1"
            [ rows; 1 ]
            (Array.to_list repetition);
          (match inner with
          | Arrayol.Model.Repetitive { repetition; inputs; _ } ->
              Alcotest.(check (list int)) "inner block of 2" [ 2 ]
                (Array.to_list repetition);
              (* Super-pattern: 8*(2-1) + 11 = 19 pixels. *)
              (match inputs with
              | [ p ] ->
                  Alcotest.(check (list int)) "super-pattern" [ 19 ]
                    (Array.to_list p.Arrayol.Model.pshape)
              | _ -> Alcotest.fail "one block input expected")
          | _ -> Alcotest.fail "inner task should be repetitive");
          Alcotest.(check (list string)) "no validation issues" []
            (List.map
               (Format.asprintf "%a" Arrayol.Validate.pp_issue)
               (Arrayol.Validate.check blocked))
      | _ -> Alcotest.fail "blocked task should be repetitive")

let test_block_semantics () =
  let plane = plane_of 17 in
  let h = Arrayol.Downscaler_model.horizontal ~rows ~cols in
  let blocked = Arrayol.Refactor.block_exn ~dim:1 ~factor:2 h in
  Alcotest.(check bool) "blocked = flat" true
    (tensor_eq (Arrayol.Semantics.run1 blocked plane)
       (Arrayol.Semantics.run1 h plane))

let test_block_rows_dim () =
  (* The vertical filter's patterns walk rows, so the collinear
     (blockable) dimension is 0; blocking along columns is correctly
     rejected because the super-pattern would not be rank-1. *)
  let plane = Video.Downscaler.horizontal (plane_of 18) in
  let v = Arrayol.Downscaler_model.vertical ~rows ~cols:h_cols in
  Alcotest.(check bool) "orthogonal dimension rejected" true
    (Result.is_error (Arrayol.Refactor.block ~dim:1 ~factor:3 v));
  let blocked = Arrayol.Refactor.block_exn ~dim:0 ~factor:2 v in
  Alcotest.(check bool) "blocked vertical = flat" true
    (tensor_eq (Arrayol.Semantics.run1 blocked plane)
       (Arrayol.Semantics.run1 v plane))

let test_block_rejects_bad_factor () =
  let h = Arrayol.Downscaler_model.horizontal ~rows ~cols in
  Alcotest.(check bool) "non-dividing factor rejected" true
    (Result.is_error (Arrayol.Refactor.block ~dim:1 ~factor:5 h));
  Alcotest.(check bool) "bad dimension rejected" true
    (Result.is_error (Arrayol.Refactor.block ~dim:7 ~factor:2 h));
  Alcotest.(check bool) "non-repetitive rejected" true
    (Result.is_error
       (Arrayol.Refactor.block ~dim:0 ~factor:2
          (Arrayol.Downscaler_model.plane ~rows ~cols)))

let test_block_twice () =
  (* Blocking is composable: the outer level can be blocked again,
     giving a three-level hierarchy. *)
  let fmt = { Video.Format.name = "b"; rows = 36; cols = 64 } in
  let plane = Video.Frame.plane (Video.Framegen.frame fmt 19) Video.Frame.R in
  let h = Arrayol.Downscaler_model.horizontal ~rows:36 ~cols:64 in
  let once = Arrayol.Refactor.block_exn ~dim:1 ~factor:2 h in
  let twice = Arrayol.Refactor.block_exn ~dim:1 ~factor:2 once in
  Alcotest.(check bool) "three-level hierarchy = flat" true
    (tensor_eq (Arrayol.Semantics.run1 twice plane)
       (Arrayol.Semantics.run1 h plane))

(* ---------- Properties ---------- *)

let prop_semantics_matches_reference =
  QCheck.Test.make ~name:"ArrayOL downscaler = reference (random frames)"
    ~count:10 (QCheck.int_range 0 500) (fun n ->
      let plane = plane_of n in
      tensor_eq
        (Arrayol.Semantics.run1
           (Arrayol.Downscaler_model.plane ~rows ~cols)
           plane)
        (Video.Downscaler.plane plane))

let prop_schedule_is_deterministic =
  QCheck.Test.make ~name:"any schedule order yields same result (determinism)"
    ~count:5 (QCheck.int_range 0 100) (fun n ->
      (* The language is deterministic: running twice (schedules are
         stable here, but gather order differs per run through hash
         iteration) gives identical frames. *)
      let plane = plane_of n in
      let m = Arrayol.Downscaler_model.plane ~rows ~cols in
      tensor_eq (Arrayol.Semantics.run1 m plane) (Arrayol.Semantics.run1 m plane))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_semantics_matches_reference; prop_schedule_is_deterministic ]

let () =
  Alcotest.run "arrayol"
    [
      ( "ip",
        [
          Alcotest.test_case "reference windows" `Quick
            test_ip_matches_reference_windows;
          Alcotest.test_case "registry" `Quick test_ip_registry;
          Alcotest.test_case "arity" `Quick test_ip_arity_check;
        ] );
      ( "validate",
        [
          Alcotest.test_case "downscaler models" `Quick
            test_validate_downscaler;
          Alcotest.test_case "unknown IP" `Quick test_validate_unknown_ip;
          Alcotest.test_case "non-exact output tiler" `Quick
            test_validate_nonexact_output_tiler;
          Alcotest.test_case "cycle" `Quick test_validate_cycle;
          Alcotest.test_case "paper-scale frame" `Quick
            test_validate_paper_scale;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "plane order" `Quick test_schedule_plane;
          Alcotest.test_case "frame parallelism" `Quick
            test_schedule_frame_parallelism;
        ] );
      ( "refactor",
        [
          Alcotest.test_case "blocked structure" `Quick test_block_structure;
          Alcotest.test_case "blocked semantics" `Quick test_block_semantics;
          Alcotest.test_case "vertical blocking" `Quick test_block_rows_dim;
          Alcotest.test_case "rejections" `Quick test_block_rejects_bad_factor;
          Alcotest.test_case "composable" `Quick test_block_twice;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "horizontal" `Quick test_semantics_horizontal;
          Alcotest.test_case "vertical" `Quick test_semantics_vertical;
          Alcotest.test_case "plane chain" `Quick test_semantics_plane_chain;
          Alcotest.test_case "frame (3 planes)" `Quick test_semantics_frame;
          Alcotest.test_case "missing input" `Quick
            test_semantics_missing_input;
          Alcotest.test_case "wrong shape" `Quick test_semantics_wrong_shape;
        ] );
      ("properties", props);
    ]
