(* The ArrayOL -> SAC translator must mechanically reproduce what the
   paper's Section VI produced by hand: SAC programs whose compiled
   plans behave exactly like the source models. *)

open Ndarray

let rows = 18

let cols = 16

let h_cols = cols / 8 * 3

let plane_of n =
  Video.Frame.plane
    (Video.Framegen.frame { Video.Format.name = "s"; rows; cols } n)
    Video.Frame.R

let tensor_eq = Tensor.equal Int.equal

let run_sac src input =
  Sac.Interp.run (Sac.Parser.program src) ~entry:"main"
    ~args:[ Sac.Value.Varr input ]

let exec_sac src input =
  let plan, _ = Sac_cuda.Compile.plan_of_source src ~entry:"main" in
  let ctx = Gpu.Context.create () in
  (Sac_cuda.Exec.run ctx plan ~args:[ ("frame", input) ]).Sac_cuda.Exec.result

let test_translated_h_matches_model () =
  let model = Arrayol.Downscaler_model.horizontal ~rows ~cols in
  let plane = plane_of 0 in
  List.iter
    (fun generic ->
      let src = Bridge.Arrayol_to_sac.translate ~generic model in
      let got = run_sac src plane in
      Alcotest.(check bool)
        (Printf.sprintf "translated (generic=%b) = ArrayOL semantics" generic)
        true
        (Sac.Value.equal got
           (Sac.Value.Varr (Arrayol.Semantics.run1 model plane))))
    [ true; false ]

let test_translated_v_matches_model () =
  let model = Arrayol.Downscaler_model.vertical ~rows ~cols:h_cols in
  let plane = Video.Downscaler.horizontal (plane_of 1) in
  let src = Bridge.Arrayol_to_sac.translate model in
  Alcotest.(check bool) "translated V = ArrayOL semantics" true
    (Sac.Value.equal (run_sac src plane)
       (Sac.Value.Varr (Arrayol.Semantics.run1 model plane)))

let test_translated_compiles_to_5_kernels () =
  (* The automation reproduces the paper's hand translation down to the
     kernel structure of Table II. *)
  let model = Arrayol.Downscaler_model.horizontal ~rows ~cols in
  let src = Bridge.Arrayol_to_sac.translate model in
  let plan, report = Sac_cuda.Compile.plan_of_source src ~entry:"main" in
  Alcotest.(check int) "WLF folds twice" 2 report.Sac.Pipeline.wlf_rounds;
  Alcotest.(check int) "five kernels" 5 (Sac_cuda.Plan.kernel_count plan)

let test_translated_executes_on_device () =
  let model = Arrayol.Downscaler_model.horizontal ~rows ~cols in
  let plane = plane_of 2 in
  let src = Bridge.Arrayol_to_sac.translate model in
  Alcotest.(check bool) "device result = reference" true
    (tensor_eq (exec_sac src plane) (Video.Downscaler.horizontal plane))

let test_translated_generic_stays_on_host () =
  let model = Arrayol.Downscaler_model.horizontal ~rows ~cols in
  let src = Bridge.Arrayol_to_sac.translate ~generic:true model in
  let plan, _ = Sac_cuda.Compile.plan_of_source src ~entry:"main" in
  Alcotest.(check bool) "generic output tiler is a host block" true
    (List.exists
       (function Sac_cuda.Plan.Host_block _ -> true | _ -> false)
       plan.Sac_cuda.Plan.items)

let test_custom_ip () =
  (* Register a new IP (max of 3-element windows over packets of 4) and
     translate a model that uses it. *)
  Arrayol.Ip.register
    {
      Arrayol.Ip.name = "PeakDetect";
      pattern_in = 6;
      pattern_out = 2;
      apply =
        (fun p ->
          let w off = max p.(off) (max p.(off + 1) p.(off + 2)) in
          [| w 0; w 3 |]);
    };
  Bridge.Arrayol_to_sac.register_ip "PeakDetect" (fun ~fname ->
      Printf.sprintf
        {|
int[*] %s(int[*] input, int[.] out_pattern, int[.] repetition)
{
    output = with {
        (. <= rep <= .) {
            tile = genarray( out_pattern, 0);
            tile[0] = max(input[rep][0], max(input[rep][1], input[rep][2]));
            tile[1] = max(input[rep][3], max(input[rep][4], input[rep][5]));
        } : tile;
    } : genarray( repetition);
    return( output);
}
|}
        fname);
  let model =
    Arrayol.Model.Repetitive
      {
        name = "PeakFilter";
        repetition = [| 6; 4 |];
        inner =
          Arrayol.Model.Elementary
            {
              name = "PeakDetect";
              ip = "PeakDetect";
              inputs = [ { Arrayol.Model.pname = "pattern_in"; pshape = [| 6 |] } ];
              outputs =
                [ { Arrayol.Model.pname = "pattern_out"; pshape = [| 2 |] } ];
            };
        in_tilings =
          [
            {
              Arrayol.Model.outer_port = "in";
              inner_port = "pattern_in";
              tiler =
                Tiler.make ~origin:[| 0; 0 |]
                  ~fitting:(Linalg.of_lists [ [ 0 ]; [ 1 ] ])
                  ~paving:(Linalg.of_lists [ [ 1; 0 ]; [ 0; 6 ] ]);
            };
          ];
        out_tilings =
          [
            {
              Arrayol.Model.outer_port = "out";
              inner_port = "pattern_out";
              tiler =
                Tiler.make ~origin:[| 0; 0 |]
                  ~fitting:(Linalg.of_lists [ [ 0 ]; [ 1 ] ])
                  ~paving:(Linalg.of_lists [ [ 1; 0 ]; [ 0; 2 ] ]);
            };
          ];
        inputs = [ { Arrayol.Model.pname = "in"; pshape = [| 6; 24 |] } ];
        outputs = [ { Arrayol.Model.pname = "out"; pshape = [| 6; 8 |] } ];
      }
  in
  let input = Tensor.init [| 6; 24 |] (fun i -> ((i.(0) * 31) + (i.(1) * 7)) mod 101) in
  let src = Bridge.Arrayol_to_sac.translate model in
  Alcotest.(check bool) "custom IP: SAC = ArrayOL" true
    (Sac.Value.equal (run_sac src input)
       (Sac.Value.Varr (Arrayol.Semantics.run1 model input)));
  Alcotest.(check bool) "custom IP: device = ArrayOL" true
    (tensor_eq (exec_sac src input) (Arrayol.Semantics.run1 model input))

let test_unsupported_cases () =
  Alcotest.(check bool) "compound rejected" true
    (try
       ignore
         (Bridge.Arrayol_to_sac.translate
            (Arrayol.Downscaler_model.plane ~rows ~cols));
       false
     with Bridge.Arrayol_to_sac.Unsupported _ -> true);
  Alcotest.(check bool) "unknown IP rejected" true
    (try
       ignore
         (Bridge.Arrayol_to_sac.translate
            (Arrayol.Model.Repetitive
               {
                 name = "x";
                 repetition = [| 2 |];
                 inner =
                   Arrayol.Model.Elementary
                     {
                       name = "mystery";
                       ip = "MysteryIp";
                       inputs =
                         [ { Arrayol.Model.pname = "i"; pshape = [| 2 |] } ];
                       outputs =
                         [ { Arrayol.Model.pname = "o"; pshape = [| 1 |] } ];
                     };
                 in_tilings = [];
                 out_tilings = [];
                 inputs = [ { Arrayol.Model.pname = "in"; pshape = [| 4 |] } ];
                 outputs = [ { Arrayol.Model.pname = "out"; pshape = [| 2 |] } ];
               }));
       false
     with Bridge.Arrayol_to_sac.Unsupported _ -> true)

let prop_translation_equivalence =
  QCheck.Test.make
    ~name:"translate(model) = model semantics (random frames, both variants)"
    ~count:8
    (QCheck.pair (QCheck.int_range 0 300) QCheck.bool)
    (fun (n, generic) ->
      let model = Arrayol.Downscaler_model.horizontal ~rows ~cols in
      let plane = plane_of n in
      let src = Bridge.Arrayol_to_sac.translate ~generic model in
      Sac.Value.equal (run_sac src plane)
        (Sac.Value.Varr (Arrayol.Semantics.run1 model plane)))

let () =
  Alcotest.run "bridge"
    [
      ( "translate",
        [
          Alcotest.test_case "horizontal (both variants)" `Quick
            test_translated_h_matches_model;
          Alcotest.test_case "vertical" `Quick test_translated_v_matches_model;
          Alcotest.test_case "five kernels" `Quick
            test_translated_compiles_to_5_kernels;
          Alcotest.test_case "device execution" `Quick
            test_translated_executes_on_device;
          Alcotest.test_case "generic host block" `Quick
            test_translated_generic_stays_on_host;
          Alcotest.test_case "custom IP" `Quick test_custom_ip;
          Alcotest.test_case "unsupported" `Quick test_unsupported_cases;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_translation_equivalence ] );
    ]
