(* Tests the reproduction claims themselves: the simulated tables and
   figures must match the paper's published values in *shape* (who
   wins, by what factor) and, for the calibrated tables, in magnitude. *)

let within pct a b = Float.abs (a -. b) /. b <= pct /. 100.0

let find_row rows op =
  match
    List.find_opt
      (fun (r : Gpu.Profiler.row) -> r.Gpu.Profiler.operation = op)
      rows
  with
  | Some r -> r
  | None -> Alcotest.failf "row %s missing" op

(* Compute each table once; the suite asserts many facets. *)
let table1 = lazy (Study.Experiments.table1 ())

let table2 = lazy (Study.Experiments.table2 ())

let fig9 = lazy (Study.Experiments.fig9 ())

let fig9_time variant filter =
  let r =
    List.find
      (fun (r : Study.Experiments.fig9_row) -> r.Study.Experiments.variant = variant)
      (Lazy.force fig9)
  in
  match filter with
  | `H -> r.Study.Experiments.h_seconds
  | `V -> r.Study.Experiments.v_seconds

(* ---------- Table I ---------- *)

let test_table1_structure () =
  let rows = Lazy.force table1 in
  let h = find_row rows "H. Filter (3 kernels)" in
  let v = find_row rows "V. Filter (3 kernels)" in
  Alcotest.(check int) "300 rounds H" 300 h.Gpu.Profiler.calls;
  Alcotest.(check int) "300 rounds V" 300 v.Gpu.Profiler.calls;
  let h2d = find_row rows "memcpyHtoDasync" in
  let d2h = find_row rows "memcpyDtoHasync" in
  Alcotest.(check int) "900 uploads" 900 h2d.Gpu.Profiler.calls;
  Alcotest.(check int) "900 downloads" 900 d2h.Gpu.Profiler.calls

let test_table1_magnitudes () =
  let rows = Lazy.force table1 in
  List.iter
    (fun (op, paper_us) ->
      let r = find_row rows op in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 15%% of %.0f (got %.0f)" op paper_us
           r.Gpu.Profiler.gpu_time_us)
        true
        (within 15.0 r.Gpu.Profiler.gpu_time_us paper_us))
    [
      ("H. Filter (3 kernels)", 844185.0);
      ("V. Filter (3 kernels)", 424223.0);
      ("memcpyHtoDasync", 1391670.0);
      ("memcpyDtoHasync", 197057.0);
    ];
  Alcotest.(check bool) "total within 5% of 2.86 s" true
    (within 5.0 (Gpu.Profiler.total_us rows /. 1e6) 2.86)

let test_table1_transfer_share () =
  (* "More than half of the time is dedicated to data transfers". *)
  let rows = Lazy.force table1 in
  let share =
    (find_row rows "memcpyHtoDasync").Gpu.Profiler.share_pct
    +. (find_row rows "memcpyDtoHasync").Gpu.Profiler.share_pct
  in
  Alcotest.(check bool) "transfers dominate" true (share > 50.0)

(* ---------- Table II ---------- *)

let test_table2_structure () =
  let rows = Lazy.force table2 in
  ignore (find_row rows "H. Filter (5 kernels)");
  ignore (find_row rows "V. Filter (7 kernels)");
  let h = find_row rows "H. Filter (5 kernels)" in
  Alcotest.(check int) "300 rounds" 300 h.Gpu.Profiler.calls

let test_table2_magnitudes () =
  let rows = Lazy.force table2 in
  List.iter
    (fun (op, paper_us) ->
      let r = find_row rows op in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 15%% of %.0f (got %.0f)" op paper_us
           r.Gpu.Profiler.gpu_time_us)
        true
        (within 15.0 r.Gpu.Profiler.gpu_time_us paper_us))
    [
      ("H. Filter (5 kernels)", 1015137.0);
      ("V. Filter (7 kernels)", 762270.0);
      ("memcpyHtoDasync", 1454400.0);
      ("memcpyDtoHasync", 198000.0);
    ];
  Alcotest.(check bool) "total within 5% of 3.43 s" true
    (within 5.0 (Gpu.Profiler.total_us rows /. 1e6) 3.43)

let test_gaspard_beats_sac () =
  (* Section VIII-C: fewer kernels -> Gaspard2 is faster overall. *)
  let t1 = Gpu.Profiler.total_us (Lazy.force table1) in
  let t2 = Gpu.Profiler.total_us (Lazy.force table2) in
  Alcotest.(check bool) "Gaspard2 total < SAC total" true (t1 < t2)

(* ---------- Figure 9 ---------- *)

let test_fig9_gpu_beats_seq () =
  List.iter
    (fun filter ->
      Alcotest.(check bool) "CUDA non-generic beats both seq variants" true
        (fig9_time Study.Sac_runs.Cuda_nongeneric filter
         < fig9_time Study.Sac_runs.Seq_nongeneric filter
        && fig9_time Study.Sac_runs.Cuda_nongeneric filter
           < fig9_time Study.Sac_runs.Seq_generic filter))
    [ `H; `V ]

let test_fig9_generic_cuda_penalty () =
  (* Section VIII-A: non-generic filters 4.5x (H) and 3x (V) faster on
     GPU than the generic versions. *)
  let ratio filter =
    fig9_time Study.Sac_runs.Cuda_generic filter
    /. fig9_time Study.Sac_runs.Cuda_nongeneric filter
  in
  Alcotest.(check bool)
    (Printf.sprintf "H ratio %.1f in [3.5, 5.5]" (ratio `H))
    true
    (ratio `H >= 3.5 && ratio `H <= 5.5);
  Alcotest.(check bool)
    (Printf.sprintf "V ratio %.1f in [2.5, 4.5]" (ratio `V))
    true
    (ratio `V >= 2.5 && ratio `V <= 4.5)

let test_fig9_seq_variants_similar () =
  (* "execution times of sequential code do not vary significantly
     between generic and non-generic implementations". *)
  List.iter
    (fun filter ->
      let g = fig9_time Study.Sac_runs.Seq_generic filter in
      let n = fig9_time Study.Sac_runs.Seq_nongeneric filter in
      Alcotest.(check bool) "within 25%" true (Float.abs (g -. n) /. n < 0.25))
    [ `H; `V ]

let test_fig9_h_slower_than_v () =
  (* The horizontal filter does more work (more output pixels). *)
  List.iter
    (fun variant ->
      Alcotest.(check bool) "H >= V" true
        (fig9_time variant `H >= fig9_time variant `V))
    [ Study.Sac_runs.Seq_nongeneric; Study.Sac_runs.Cuda_nongeneric ]

(* ---------- Figure 12 ---------- *)

let test_fig12_shapes () =
  let rows = Study.Experiments.fig12 () in
  let get op =
    List.find
      (fun (r : Study.Experiments.fig12_row) -> r.Study.Experiments.operation = op)
      rows
  in
  (* Gaspard2's filters are slightly faster than SAC's (Section VIII-C)... *)
  let h = get "Horizontal Filter" in
  Alcotest.(check bool) "Gaspard H <= SAC H" true
    (h.Study.Experiments.gaspard_seconds <= h.Study.Experiments.sac_seconds);
  let v = get "Vertical Filter" in
  Alcotest.(check bool) "Gaspard V <= SAC V" true
    (v.Study.Experiments.gaspard_seconds
    <= v.Study.Experiments.sac_seconds *. 1.05);
  (* ...while both transfer the same frame data. *)
  let h2d = get "Host2Device" in
  Alcotest.(check bool) "H2D comparable" true
    (within 10.0 h2d.Study.Experiments.sac_seconds
       h2d.Study.Experiments.gaspard_seconds)

(* ---------- Figure 8 ---------- *)

let test_fig8_text () =
  let text = Study.Experiments.fig8 () in
  let count_needle needle =
    let nl = String.length needle in
    let rec go i acc =
      if i + nl > String.length text then acc
      else if String.sub text i nl = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  (* Five generators, as in the paper's Figure 8. *)
  Alcotest.(check int) "five generators" 5 (count_needle "<= iv <");
  Alcotest.(check bool) "step [1,3] generators" true
    (count_needle "step [1,3]" = 5);
  Alcotest.(check bool) "frame declaration" true
    (count_needle "int[1080, 1920] in_frame;" = 1)

(* ---------- Claims ---------- *)

let test_claims () =
  let c = Study.Experiments.claims () in
  Alcotest.(check bool) "within 85% claim holds" true
    c.Study.Experiments.within_85_pct;
  Alcotest.(check bool) "speedup is significant (>= 4x)" true
    (c.Study.Experiments.speedup >= 4.0);
  Alcotest.(check bool) "real-time playback feasible" true
    c.Study.Experiments.realtime_ok

(* ---------- Section III CIF scenario ---------- *)

let test_cif_scenario () =
  let s = Study.Experiments.cif_scenario () in
  (* "This is suitable for real time playing": both routes must beat
     the 80 s budget comfortably; CIF frames are ~30x smaller than HD,
     so totals must also be far below the HD totals despite 6.7x the
     frames. *)
  Alcotest.(check (float 0.001)) "80 s budget" 80.0
    s.Study.Experiments.budget_s;
  Alcotest.(check bool) "real-time on both" true
    s.Study.Experiments.both_realtime;
  Alcotest.(check bool) "Gaspard2 faster than SAC here too" true
    (s.Study.Experiments.gaspard_s < s.Study.Experiments.sac_s)

(* ---------- Cross-pipeline validation ---------- *)

let test_validation () =
  List.iter
    (fun (v : Study.Experiments.validation) ->
      Alcotest.(check bool) v.Study.Experiments.name true
        v.Study.Experiments.ok)
    (Study.Experiments.validate
       ~scale:{ Study.Scale.rows = 18; cols = 16; frames = 1 }
       ())

(* ---------- Pool-size determinism ---------- *)

let test_profile_deterministic_across_pool_sizes () =
  (* The plane-parallel pipeline profile must not depend on how many
     domains the shared pool has: timelines are merged in plane order. *)
  let scale = Study.Scale.validation in
  let rows_at domains =
    Gpu.Pool.set_default_domains domains;
    fst (Study.Sac_runs.full_pipeline_profile ~generic:false scale)
  in
  let reference = rows_at 1 in
  List.iter
    (fun domains ->
      let rows = rows_at domains in
      Alcotest.(check int)
        (Printf.sprintf "%d domains: same row count" domains)
        (List.length reference) (List.length rows);
      List.iter2
        (fun (a : Gpu.Profiler.row) (b : Gpu.Profiler.row) ->
          Alcotest.(check string) "operation" a.Gpu.Profiler.operation
            b.Gpu.Profiler.operation;
          Alcotest.(check int) "calls" a.Gpu.Profiler.calls b.Gpu.Profiler.calls;
          Alcotest.(check (float 0.0)) "gpu_time_us" a.Gpu.Profiler.gpu_time_us
            b.Gpu.Profiler.gpu_time_us)
        reference rows)
    [ 2; 4 ];
  Gpu.Pool.set_default_domains 1

(* Each in-process SAC compilation draws fresh uids for its buffer
   names (e.g. [output_14484]); two back-to-back profiles therefore
   differ in those labels even at the same pool size.  Rewrite
   [output_<digits>] to [output_N] so the comparison below is over the
   modelled schedule itself: event order, timestamps, durations, byte
   counts and thread counts all stay byte-compared. *)
let normalize_buffer_uids s =
  let n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  let prefix = "output_" in
  let plen = String.length prefix in
  while !i < n do
    if
      !i + plen <= n
      && String.sub s !i plen = prefix
      && !i + plen < n
      && s.[!i + plen] >= '0'
      && s.[!i + plen] <= '9'
    then (
      Buffer.add_string b "output_N";
      i := !i + plen;
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done)
    else (
      Buffer.add_char b s.[!i];
      incr i)
  done;
  Buffer.contents b

let test_trace_deterministic_across_pool_sizes () =
  (* The exported modelled-device tracks must be identical no matter
     how many domains executed the run (the paper's Figure 9 timeline
     is a property of the model, not of the host schedule). *)
  Obs.Tracer.set_enabled true;
  let doc_at domains =
    Gpu.Pool.set_default_domains domains;
    Gpu.Trace_export.clear ();
    ignore
      (Study.Sac_runs.full_pipeline_profile ~generic:false
         Study.Scale.validation);
    ignore (Study.Gaspard_runs.profile Study.Scale.validation);
    Gpu.Trace_export.device_only_json ()
  in
  let reference = doc_at 1 in
  let at4 = doc_at 4 in
  Obs.Tracer.set_enabled false;
  Gpu.Trace_export.clear ();
  Gpu.Pool.set_default_domains 1;
  Alcotest.(check bool) "trace has device slices" true
    (String.length reference > 200);
  Alcotest.(check string) "device tracks identical: 1 vs 4 domains"
    (normalize_buffer_uids reference)
    (normalize_buffer_uids at4)

let () =
  Alcotest.run "study"
    [
      ( "table1",
        [
          Alcotest.test_case "structure" `Quick test_table1_structure;
          Alcotest.test_case "magnitudes" `Slow test_table1_magnitudes;
          Alcotest.test_case "transfer share" `Quick
            test_table1_transfer_share;
        ] );
      ( "table2",
        [
          Alcotest.test_case "structure" `Quick test_table2_structure;
          Alcotest.test_case "magnitudes" `Slow test_table2_magnitudes;
          Alcotest.test_case "Gaspard2 wins" `Quick test_gaspard_beats_sac;
        ] );
      ( "fig9",
        [
          Alcotest.test_case "GPU beats sequential" `Quick
            test_fig9_gpu_beats_seq;
          Alcotest.test_case "generic CUDA penalty" `Quick
            test_fig9_generic_cuda_penalty;
          Alcotest.test_case "seq variants similar" `Quick
            test_fig9_seq_variants_similar;
          Alcotest.test_case "H slower than V" `Quick test_fig9_h_slower_than_v;
        ] );
      ("fig12", [ Alcotest.test_case "shapes" `Quick test_fig12_shapes ]);
      ("fig8", [ Alcotest.test_case "five generators" `Quick test_fig8_text ]);
      ("claims", [ Alcotest.test_case "section IX" `Quick test_claims ]);
      ("cif", [ Alcotest.test_case "section III workload" `Quick test_cif_scenario ]);
      ( "validation",
        [ Alcotest.test_case "all pipelines" `Quick test_validation ] );
      ( "determinism",
        [
          Alcotest.test_case "profile invariant in pool size" `Quick
            test_profile_deterministic_across_pool_sizes;
          Alcotest.test_case "device trace invariant in pool size" `Quick
            test_trace_deterministic_across_pool_sizes;
        ] );
    ]
