(* Tests for the observability substrate: the JSON parser, the metrics
   registry, the span tracer and the Chrome trace renderer. *)

open Obs

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains what needle hay =
  Alcotest.(check bool) (Printf.sprintf "%s has %S" what needle) true
    (contains needle hay)

(* ---------- Json ---------- *)

let test_json_parse () =
  (match Json.parse {| { "a": [1, 2.5, -3e2], "b": "x\ny", "c": null } |} with
  | Ok (Json.Obj fields) ->
      Alcotest.(check int) "3 fields" 3 (List.length fields);
      (match List.assoc "a" fields with
      | Json.Arr [ Json.Num a; Json.Num b; Json.Num c ] ->
          Alcotest.(check (float 1e-9)) "int" 1.0 a;
          Alcotest.(check (float 1e-9)) "float" 2.5 b;
          Alcotest.(check (float 1e-9)) "exponent" (-300.0) c
      | _ -> Alcotest.fail "array shape");
      Alcotest.(check bool) "string" true
        (List.assoc "b" fields = Json.Str "x\ny");
      Alcotest.(check bool) "null" true (List.assoc "c" fields = Json.Null)
  | Ok _ -> Alcotest.fail "not an object"
  | Error m -> Alcotest.failf "parse failed: %s" m);
  List.iter
    (fun garbage ->
      match Json.parse garbage with
      | Ok _ -> Alcotest.failf "accepted garbage %S" garbage
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "{} trailing" ]

let test_json_member () =
  match Json.parse {| { "x": { "y": 42 } } |} with
  | Ok j ->
      (match Json.member "x" j with
      | Some inner ->
          Alcotest.(check bool) "nested" true
            (Json.member "y" inner = Some (Json.Num 42.0))
      | None -> Alcotest.fail "x missing");
      Alcotest.(check bool) "absent" true (Json.member "z" j = None)
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_json_escape () =
  let s = Json.escape "a\"b\\c\nd" in
  match Json.parse s with
  | Ok (Json.Str v) -> Alcotest.(check string) "round trip" "a\"b\\c\nd" v
  | _ -> Alcotest.fail "escape did not round-trip"

let test_json_unicode () =
  (* \u escapes decode to UTF-8 bytes; a surrogate pair combines into
     one supplementary code point (here U+1F600, four UTF-8 bytes). *)
  (match Json.parse {|"\u0041 \u00e9 \u4e2d \ud83d\ude00"|} with
  | Ok (Json.Str v) ->
      Alcotest.(check string) "utf-8 decoded"
        "A \xc3\xa9 \xe4\xb8\xad \xf0\x9f\x98\x80" v
  | Ok _ -> Alcotest.fail "not a string"
  | Error m -> Alcotest.failf "parse failed: %s" m);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted invalid escape %S" bad
      | Error _ -> ())
    [
      {|"\ud83d"|} (* high surrogate at end of string *);
      {|"\ud83dx"|} (* high surrogate not followed by \u *);
      {|"\ud83dA"|} (* high surrogate paired with a non-low *);
      {|"\ude00"|} (* lone low surrogate *);
      {|"\uzzzz"|} (* not hex *);
    ]

let test_json_render_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\n\001");
        ("n", Json.Num 42.);
        ("f", Json.Num 2.5);
        ("neg", Json.Num (-0.125));
        ("b", Json.Bool true);
        ("nul", Json.Null);
        ("a", Json.Arr [ Json.Num 1.; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  (match Json.parse (Json.render doc) with
  | Ok doc' ->
      Alcotest.(check bool) "render/parse round-trips" true (doc = doc')
  | Error m -> Alcotest.failf "rendered doc invalid: %s" m);
  Alcotest.(check string) "integers render without a fraction" "42"
    (Json.render (Json.Num 42.));
  Alcotest.(check string) "empty containers" {|[{},[]]|}
    (Json.render (Json.Arr [ Json.Obj []; Json.Arr [] ]))

(* ---------- Metrics ---------- *)

let test_metrics_counter () =
  let c = Metrics.counter "test.counter" in
  let before = Metrics.value c in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "accumulated" (before + 42) (Metrics.value c);
  Alcotest.(check bool) "find sees it" true
    (Metrics.find "test.counter" = Some (Metrics.value c));
  Alcotest.(check bool) "interned" true (Metrics.counter "test.counter" == c)

let test_metrics_gauge () =
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 7;
  Metrics.set_max g 3;
  Alcotest.(check (option int)) "set_max keeps larger" (Some 7)
    (Metrics.find "test.gauge");
  Metrics.set_max g 11;
  Alcotest.(check (option int)) "set_max raises" (Some 11)
    (Metrics.find "test.gauge")

let test_metrics_histogram () =
  let h = Metrics.histogram ~bounds:[| 10; 100 |] "test.histo" in
  List.iter (Metrics.observe h) [ 5; 50; 500; 7 ];
  Alcotest.(check bool) "count via find" true
    (Metrics.find "test.histo" = Some 4);
  let text = Metrics.render_text () in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "text has %S" line) true
        (contains line text))
    [
      "test.histo.count 4"; "test.histo.sum 562"; "test.histo.le.10 2";
      "test.histo.le.100 1"; "test.histo.le.inf 1";
    ]

let test_metrics_type_clash () =
  ignore (Metrics.counter "test.clash");
  Alcotest.(check bool) "gauge under a counter name rejected" true
    (try
       ignore (Metrics.gauge "test.clash");
       false
     with Invalid_argument _ -> true)

let test_metrics_json_renders () =
  ignore (Metrics.counter "test.json_render");
  match Json.parse (Metrics.render_json ()) with
  | Ok j -> (
      match Json.member "metrics" j with
      | Some series ->
          Alcotest.(check bool) "series present" true
            (Json.member "test.json_render" series <> None)
      | None -> Alcotest.fail "no metrics object")
  | Error m -> Alcotest.failf "render_json invalid: %s" m

let test_metrics_prometheus () =
  Metrics.add (Metrics.counter "test.prom.counter") 3;
  Metrics.set (Metrics.gauge "test.prom.gauge") 9;
  let h = Metrics.histogram ~bounds:[| 10; 100 |] "test.prom.histo" in
  List.iter (Metrics.observe h) [ 5; 50; 500; 7 ];
  let text = Metrics.render_text ~format:`Prometheus () in
  (* Dotted names sanitise to underscores; exposition buckets are
     cumulative (ours are disjoint) and end at +Inf. *)
  List.iter
    (fun line -> check_contains "prometheus text" line text)
    [
      "# TYPE test_prom_counter counter";
      "test_prom_counter 3";
      "# TYPE test_prom_gauge gauge";
      "test_prom_gauge 9";
      "# TYPE test_prom_histo histogram";
      "test_prom_histo_bucket{le=\"10\"} 2";
      "test_prom_histo_bucket{le=\"100\"} 3";
      "test_prom_histo_bucket{le=\"+Inf\"} 4";
      "test_prom_histo_sum 562";
      "test_prom_histo_count 4";
    ];
  Alcotest.(check bool) "no dotted names survive" false
    (contains "test.prom" text)

(* ---------- Ctx ---------- *)

let test_ctx_scoping () =
  Alcotest.(check bool) "ambient default is none" true
    (Ctx.is_none (Ctx.current ()));
  Alcotest.(check int) "none has flow 0" 0 (Ctx.flow_id (Ctx.current ()));
  let tr = Ctx.fresh_trace () in
  let a = Ctx.fresh ~trace_id:tr () in
  let b = Ctx.fresh ~trace_id:tr () in
  Alcotest.(check bool) "request ids are unique" true
    (a.Ctx.request_id <> b.Ctx.request_id);
  Alcotest.(check int) "flow id is the request id" a.Ctx.request_id
    (Ctx.flow_id a);
  let outer, inner =
    Ctx.scoped a (fun () ->
        let inner = Ctx.scoped b (fun () -> Ctx.current ()) in
        (Ctx.current (), inner))
  in
  Alcotest.(check bool) "innermost wins" true (inner = b);
  Alcotest.(check bool) "outer restored after nesting" true (outer = a);
  Alcotest.(check bool) "restored to none" true
    (Ctx.is_none (Ctx.current ()));
  (* The ambient context is restored even when the thunk raises. *)
  (try Ctx.scoped a (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true
    (Ctx.is_none (Ctx.current ()))

(* ---------- Recorder ---------- *)

let flight_entry ?(request = 1) ?(total = 100.) ?(outcome = "done") () =
  {
    Recorder.e_request = request;
    e_trace = 7;
    e_label = "sac";
    e_outcome = outcome;
    e_total_us = total;
    e_phases =
      [ ("queue_wait", total *. 0.25); ("execute", total *. 0.75) ];
  }

let test_recorder_ring () =
  let r = Recorder.create ~capacity:3 () in
  List.iteri
    (fun i total -> Recorder.record r (flight_entry ~request:i ~total ()))
    [ 50.; 500.; 10.; 200.; 90. ];
  Alcotest.(check int) "all recorded" 5 (Recorder.recorded r);
  Alcotest.(check (list int)) "ring keeps newest, oldest first" [ 2; 3; 4 ]
    (List.map (fun e -> e.Recorder.e_request) (Recorder.entries r));
  Alcotest.(check (list int)) "slowest retained, worst first" [ 3; 4 ]
    (List.map (fun e -> e.Recorder.e_request) (Recorder.slowest r 2));
  Alcotest.(check bool) "capacity 0 rejected" true
    (try
       ignore (Recorder.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

let test_recorder_render () =
  let r = Recorder.create () in
  check_contains "empty dump" "no completed requests"
    (Recorder.render_slowest r);
  Recorder.record r
    (flight_entry ~request:41 ~total:2000. ~outcome:"timed_out" ());
  let dump = Recorder.render_slowest ~n:1 r in
  List.iter
    (fun needle -> check_contains "flight dump" needle dump)
    [
      "request 41"; "trace 7"; "sac"; "timed_out"; "2.00 ms"; "queue_wait";
      "execute"; "75.0%";
    ]

(* ---------- Slo ---------- *)

let test_slo_accounting () =
  let s = Slo.create ~name:"test_obs" ~objective_us:100. ~budget:0.1 () in
  Alcotest.(check string) "name" "test_obs" (Slo.name s);
  Alcotest.(check (float 1e-9)) "objective" 100. (Slo.objective_us s);
  (* 50 and 99 meet the objective, 150 misses it, plus one outright
     breach (timeout / failure). *)
  List.iter (Slo.observe s) [ 50.; 99.; 150. ];
  Slo.breach s;
  Alcotest.(check int) "total counts observe + breach" 4 (Slo.total s);
  Alcotest.(check int) "breaches: slow observe + outright" 2 (Slo.breaches s);
  Alcotest.(check (float 1e-9)) "breach rate" 0.5 (Slo.breach_rate s);
  Alcotest.(check (float 1e-9)) "burn = rate / budget" 5.0 (Slo.burn s);
  Alcotest.(check bool) "counters live in the registry" true
    (Metrics.find "slo.test_obs.total" = Some 4);
  check_contains "report" "burn" (Slo.report s);
  Alcotest.(check bool) "budget outside (0,1) rejected" true
    (try
       ignore (Slo.create ~name:"bad" ~objective_us:1. ~budget:1.5 ());
       false
     with Invalid_argument _ -> true)

(* ---------- Tracer ---------- *)

let test_tracer_disabled () =
  Tracer.set_enabled false;
  Tracer.clear ();
  Alcotest.(check (float 0.0)) "start is 0" 0.0 (Tracer.start ());
  Tracer.finish "ignored" 0.0;
  Tracer.emit "ignored" ~start_us:1.0 ~dur_us:1.0;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Tracer.dump ()))

let test_tracer_records () =
  Tracer.set_enabled true;
  Tracer.clear ();
  let r = Tracer.with_span ~cat:"t" "outer" (fun () -> 42) in
  Alcotest.(check int) "thunk result" 42 r;
  let t0 = Tracer.start () in
  Alcotest.(check bool) "start is a timestamp" true (t0 > 0.0);
  Tracer.finish ~cat:"t" "manual" t0;
  let spans = Tracer.dump () in
  Tracer.set_enabled false;
  Tracer.clear ();
  Alcotest.(check int) "2 spans" 2 (List.length spans);
  Alcotest.(check (list string)) "sorted by start" [ "outer"; "manual" ]
    (List.map (fun (s : Tracer.span) -> s.Tracer.sp_name) spans);
  List.iter
    (fun (s : Tracer.span) ->
      Alcotest.(check string) "category" "t" s.Tracer.sp_cat;
      Alcotest.(check bool) "non-negative duration" true
        (s.Tracer.sp_dur_us >= 0.0))
    spans

let test_tracer_span_raises () =
  Tracer.set_enabled true;
  Tracer.clear ();
  (try Tracer.with_span "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  let spans = Tracer.dump () in
  Tracer.set_enabled false;
  Tracer.clear ();
  Alcotest.(check int) "span recorded despite raise" 1 (List.length spans)

(* ---------- Trace rendering ---------- *)

let device_event i =
  {
    Trace.de_track = "kernels";
    de_name = Printf.sprintf "k%d" i;
    de_cat = "device";
    de_ts_us = float_of_int (10 * i);
    de_dur_us = 10.0;
    de_args = [ ("bytes", Trace.I (100 * i)); ("tag", Trace.S "x") ];
  }

let count_complete_events doc =
  match Json.parse doc with
  | Error m -> Alcotest.failf "trace invalid: %s" m
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.Arr evs) ->
          List.length
            (List.filter
               (fun e -> Json.member "ph" e = Some (Json.Str "X"))
               evs)
      | _ -> Alcotest.fail "no traceEvents")

let test_trace_render () =
  let device = [ ("dev", List.init 5 device_event) ] in
  let spans =
    [
      {
        Tracer.sp_name = "host";
        sp_cat = "h";
        sp_tid = 0;
        sp_start_us = 1000.0;
        sp_dur_us = 5.0;
        sp_flow = 0;
      };
    ]
  in
  let doc = Trace.render ~device ~spans () in
  Alcotest.(check int) "device + host events" 6 (count_complete_events doc);
  Alcotest.(check int) "device-only count" 5
    (count_complete_events (Trace.render ~device ()));
  Alcotest.(check string) "device rendering is deterministic"
    (Trace.render ~device ())
    (Trace.render ~device ())

(* Spans sharing a flow id render as one Perfetto flow: a start ("s")
   on the earliest slice, a step ("t") on each later one, and the
   slices themselves advertise the flow in their args.  A single-span
   flow draws no arrow. *)
let test_trace_flow_events () =
  let span ~flow ~tid ~start name =
    {
      Tracer.sp_name = name;
      sp_cat = "serve";
      sp_tid = tid;
      sp_start_us = start;
      sp_dur_us = 5.0;
      sp_flow = flow;
    }
  in
  let spans =
    [
      span ~flow:9 ~tid:0 ~start:1000. "serve.queue_wait";
      span ~flow:9 ~tid:1 ~start:1010. "serve.execute";
      span ~flow:3 ~tid:0 ~start:1020. "lonely";
    ]
  in
  match Json.parse (Trace.render ~spans ()) with
  | Error m -> Alcotest.failf "trace invalid: %s" m
  | Ok j ->
      let evs =
        match Json.member "traceEvents" j with
        | Some (Json.Arr evs) -> evs
        | _ -> Alcotest.fail "no traceEvents"
      in
      let with_ph p =
        List.filter (fun e -> Json.member "ph" e = Some (Json.Str p)) evs
      in
      Alcotest.(check int) "one flow start" 1 (List.length (with_ph "s"));
      Alcotest.(check int) "one flow step" 1 (List.length (with_ph "t"));
      List.iter
        (fun e ->
          Alcotest.(check bool) "flow event carries the request id" true
            (Json.member "id" e = Some (Json.Num 9.)))
        (with_ph "s" @ with_ph "t");
      let slice_flows =
        List.filter_map
          (fun e ->
            match Json.member "args" e with
            | Some a -> Json.member "flow" a
            | None -> None)
          (with_ph "X")
      in
      Alcotest.(check bool) "slices advertise args.flow" true
        (List.mem (Json.Num 9.) slice_flows
        && List.mem (Json.Num 3.) slice_flows)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "escape" `Quick test_json_escape;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode;
          Alcotest.test_case "render round-trips" `Quick
            test_json_render_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_metrics_counter;
          Alcotest.test_case "gauge" `Quick test_metrics_gauge;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "type clash" `Quick test_metrics_type_clash;
          Alcotest.test_case "json" `Quick test_metrics_json_renders;
          Alcotest.test_case "prometheus exposition" `Quick
            test_metrics_prometheus;
        ] );
      ( "ctx",
        [ Alcotest.test_case "scoping" `Quick test_ctx_scoping ] );
      ( "recorder",
        [
          Alcotest.test_case "ring retention" `Quick test_recorder_ring;
          Alcotest.test_case "render slowest" `Quick test_recorder_render;
        ] );
      ( "slo",
        [ Alcotest.test_case "accounting" `Quick test_slo_accounting ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled" `Quick test_tracer_disabled;
          Alcotest.test_case "records" `Quick test_tracer_records;
          Alcotest.test_case "raises" `Quick test_tracer_span_raises;
        ] );
      ( "trace",
        [
          Alcotest.test_case "render" `Quick test_trace_render;
          Alcotest.test_case "flow events" `Quick test_trace_flow_events;
        ] );
    ]
