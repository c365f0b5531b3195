(* Unit tests for the benchmark driver's statistics, accounting, ledger
   and spec check.  No workload runs here. *)

open Perfkit

let close = Alcotest.float 1e-9

let test_tail_640 () =
  (* 1..640: percentile 99 leaves only 6 samples above it, 98 leaves 12. *)
  let values = List.init 640 (fun i -> float_of_int (i + 1)) in
  let p, v = Stats.tail values in
  Alcotest.(check int) "percentile" 98 p;
  Alcotest.check close "value" 628. v;
  Alcotest.(check bool) "ten beyond" true
    (List.length (List.filter (fun x -> x > v) values) >= 10)

let test_tail_small () =
  let p, v = Stats.tail [ 3.; 1.; 2. ] in
  Alcotest.(check int) "falls back to the maximum" 100 p;
  Alcotest.check close "max" 3. v;
  let p, _ = Stats.tail (List.init 20 float_of_int) in
  Alcotest.(check int) "n = 20 keeps ten above the median" 50 p

let test_median_iqr () =
  Alcotest.check close "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let one_to_ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  let q1, q2, q3 = Stats.quartiles one_to_ten in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  (* statistics.quantiles([1, 2], n=4) = [0.75, 1.5, 2.25] *)
  let q1, _, q3 = Stats.quartiles [ 2.; 1. ] in
  Alcotest.check close "q1 of two" 0.75 q1;
  Alcotest.check close "q3 of two" 2.25 q3;
  Alcotest.check close "iqr share" 1.0 (Stats.iqr_frac [ 1.; 2.; 3.; 4.; 5. ])

let test_due_latency () =
  (* Submitted 30 ms after it was due, then 12.5 ms inside the engine. *)
  Alcotest.check close "late submit counts" 42.5
    (Stats.latency_from_due_ms ~due_s:100.0 ~submit_s:100.030
       ~engine_latency_us:12_500.);
  Alcotest.check close "on time" 12.5
    (Stats.latency_from_due_ms ~due_s:5. ~submit_s:5.
       ~engine_latency_us:12_500.)

let test_accounting () =
  let c =
    {
      Stats.submitted = 10;
      completed = 6;
      rejected = 1;
      dropped = 1;
      timed_out = 1;
      failed = 1;
    }
  in
  Alcotest.(check bool) "balanced" true (Stats.balanced c);
  Alcotest.(check bool) "a lost request unbalances" false
    (Stats.balanced { c with completed = 5 });
  (* 4 refused or lost requests, plus 2 of 6 completions over the limit. *)
  Alcotest.(check int) "refusals are misses" 6
    (Stats.slo_misses c ~limit_ms:250. [ 10.; 300.; 20.; 251.; 249.; 250. ])

let test_self_time () =
  (* Parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] runs past
     the parent's end: they cover [1, 5] and [8, 10], 6 of 10 seconds. *)
  Alcotest.check close "nested and overlapping" 4.
    (Stats.self_time ~start:0. ~stop:10. [ (2., 5.); (1., 3.); (8., 12.) ]);
  Alcotest.check close "no children" 10.
    (Stats.self_time ~start:0. ~stop:10. []);
  Alcotest.check close "child outside" 10.
    (Stats.self_time ~start:0. ~stop:10. [ (11., 12.) ])

let test_ledger_rows () =
  let span seg id parent name start stop =
    { Ledger.seg; id; parent; name; start; stop; flow = 0 }
  in
  let spans =
    [
      span 0 0 (-1) "op" 0. 10.;
      span 0 1 0 "layer" 1. 4.;
      span 0 2 0 "layer" 3. 6.;
      (* same ids in another segment must not count as children here *)
      span 1 0 (-1) "op" 0. 2.;
    ]
  in
  let rows = Ledger.rows spans in
  let row name = List.find (fun (r : Ledger.row) -> r.name = name) rows in
  Alcotest.(check int) "op calls" 2 (row "op").calls;
  Alcotest.check close "op self" (10. -. 5. +. 2.) (row "op").self_s;
  Alcotest.check close "layer self" 6. (row "layer").self_s;
  match Obs.Json.parse (Ledger.chrome_json spans) with
  | Ok json ->
      Alcotest.(check bool)
        "trace events" true
        (Obs.Json.member "traceEvents" json <> None)
  | Error e -> Alcotest.fail e

(* One end-to-end entry of BENCHMARK.json; [None] drops a field. *)
let entry ?(unit = Some "ms") ?(better = Some "lower") ?(bound = Some 0.1)
    name =
  let fields =
    [
      Some (Printf.sprintf {|"name": %S|} name);
      Option.map (Printf.sprintf {|"unit": %S|}) unit;
      Option.map (Printf.sprintf {|"better": %S|}) better;
      Option.map (Printf.sprintf {|"bound": %g|}) bound;
    ]
  in
  "{" ^ String.concat ", " (List.filter_map Fun.id fields) ^ "}"

let lat_ms = entry "lat_ms"

let spec_json ?(metrics = [ lat_ms ]) () =
  let setup = entry ~unit:(Some "s") ~bound:(Some 0.2) "setup_s" in
  Printf.sprintf
    {|{"command": ["sh", "x"], "paths": ["p"], "run_seconds": 10,
       "workloads": [{"name": "w", "why": "because"}],
       "end_to_end": [%s],
       "per_layer": [{"name": "a.b", "unit": "count", "better": "higher"}]}|}
    (String.concat ", " (setup :: metrics))

let check_spec text =
  match Obs.Json.parse text with
  | Error e -> Alcotest.fail ("fixture is not JSON: " ^ e)
  | Ok json ->
      Spec.check ~workloads:[ "w" ]
        ~end_to_end:
          Spec.
            [
              { name = "setup_s"; unit = "s"; better = Lower };
              { name = "lat_ms"; unit = "ms"; better = Lower };
            ]
        ~per_layer:Spec.[ { name = "a.b"; unit = "count"; better = Higher } ]
        json

let test_spec () =
  Alcotest.(check (list string)) "agrees" [] (check_spec (spec_json ()));
  let fails what metrics =
    Alcotest.(check bool) what true (check_spec (spec_json ~metrics ()) <> [])
  in
  fails "not produced by the driver" [ lat_ms; entry "x_ms" ];
  fails "produced but not listed" [];
  fails "name outside the character set" [ lat_ms; entry "x ms" ];
  fails "no bound" [ entry ~bound:None "lat_ms" ];
  fails "no unit" [ entry ~unit:None "lat_ms" ];
  fails "no direction" [ entry ~better:None "lat_ms" ];
  fails "wrong unit" [ entry ~unit:(Some "s") "lat_ms" ];
  fails "bound above 0.25" [ entry ~bound:(Some 0.5) "lat_ms" ];
  fails "setup_s without the largest bound"
    [ entry ~bound:(Some 0.25) "lat_ms" ]

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile at n = 640" `Quick test_tail_640;
          Alcotest.test_case "tail of small samples" `Quick test_tail_small;
          Alcotest.test_case "median and quartiles" `Quick test_median_iqr;
          Alcotest.test_case "latency from due time" `Quick test_due_latency;
          Alcotest.test_case "request accounting" `Quick test_accounting;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "rows and chrome trace" `Quick test_ledger_rows;
        ] );
      ("spec", [ Alcotest.test_case "drift check" `Quick test_spec ]);
    ]
