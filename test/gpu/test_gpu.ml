open Gpu

(* A 1-d vector-add kernel: out[i] = a[i] + b[i]. *)
let vadd =
  Kir.
    {
      kname = "vadd";
      params =
        [
          { pname = "a"; kind = In_buffer };
          { pname = "b"; kind = In_buffer };
          { pname = "out"; kind = Out_buffer };
        ];
      grid_rank = 1;
      body =
        [
          Let ("x", Read ("a", Gid 0));
          Let ("y", Read ("b", Gid 0));
          Store ("out", Gid 0, Bin (Add, Var "x", Var "y"));
        ];
    }

(* Column-walking kernel: each thread reads [w] elements with a large
   constant stride. *)
let col_walk ~w ~stride =
  Kir.
    {
      kname = "col_walk";
      params =
        [
          { pname = "src"; kind = In_buffer };
          { pname = "dst"; kind = Out_buffer };
        ];
      grid_rank = 1;
      body =
        [
          Let ("acc0", Read ("src", Gid 0));
          Let
            ( "acc1",
              Bin
                ( Add,
                  Var "acc0",
                  Read ("src", Bin (Add, Gid 0, Int stride)) ) );
          Let
            ( "acc2",
              Bin
                ( Add,
                  Var "acc1",
                  Read ("src", Bin (Add, Gid 0, Int (2 * stride))) ) );
          Store ("dst", Gid 0, Var "acc2");
        ];
    }
  |> fun k ->
  ignore w;
  k

let ctx () = Gpu.Context.create ()

let launch_vadd c n (a, b, out) =
  Context.launch c vadd ~grid:[| n |]
    ~args:
      [ ("a", Kir.Buffer_arg a); ("b", Kir.Buffer_arg b);
        ("out", Kir.Buffer_arg out) ]

let vadd_buffers c n =
  let a = Context.alloc c ~name:"a" n in
  let b = Context.alloc c ~name:"b" n in
  let out = Context.alloc c ~name:"out" n in
  Context.h2d c a (Array.init n (fun i -> i mod 19));
  Context.h2d c b (Array.init n (fun i -> i mod 23));
  (a, b, out)

(* ---------- Kir validation ---------- *)

let ok_or_fail = function
  | Ok () -> ()
  | Error m -> Alcotest.failf "unexpected validation error: %s" m

let test_validate_ok () = ok_or_fail (Kir.validate vadd)

let test_validate_unbound_var () =
  let k =
    Kir.
      {
        kname = "bad";
        params = [ { pname = "o"; kind = Out_buffer } ];
        grid_rank = 1;
        body = [ Store ("o", Gid 0, Var "nope") ];
      }
  in
  Alcotest.(check bool) "unbound var rejected" true
    (Result.is_error (Kir.validate k))

let test_validate_store_to_input () =
  let k =
    Kir.
      {
        kname = "bad";
        params = [ { pname = "i"; kind = In_buffer } ];
        grid_rank = 1;
        body = [ Store ("i", Gid 0, Int 1) ];
      }
  in
  Alcotest.(check bool) "store to In_buffer rejected" true
    (Result.is_error (Kir.validate k))

let test_validate_gid_rank () =
  let k =
    Kir.
      {
        kname = "bad";
        params = [ { pname = "o"; kind = Out_buffer } ];
        grid_rank = 1;
        body = [ Store ("o", Gid 1, Int 1) ];
      }
  in
  Alcotest.(check bool) "gid beyond rank rejected" true
    (Result.is_error (Kir.validate k))

let test_validate_scalar_as_buffer () =
  let k =
    Kir.
      {
        kname = "bad";
        params =
          [ { pname = "n"; kind = Scalar }; { pname = "o"; kind = Out_buffer } ];
        grid_rank = 1;
        body = [ Store ("o", Gid 0, Read ("n", Int 0)) ];
      }
  in
  Alcotest.(check bool) "scalar read as buffer rejected" true
    (Result.is_error (Kir.validate k))

let test_validate_dup_params () =
  let k =
    Kir.
      {
        kname = "bad";
        params =
          [ { pname = "o"; kind = Out_buffer }; { pname = "o"; kind = Scalar } ];
        grid_rank = 1;
        body = [];
      }
  in
  Alcotest.(check bool) "duplicate params rejected" true
    (Result.is_error (Kir.validate k))

(* ---------- Execution ---------- *)

let test_vadd_executes () =
  let c = ctx () in
  let n = 100 in
  let a = Context.alloc c ~name:"a" n in
  let b = Context.alloc c ~name:"b" n in
  let out = Context.alloc c ~name:"out" n in
  Context.h2d c a (Array.init n (fun i -> i));
  Context.h2d c b (Array.init n (fun i -> 2 * i));
  Context.launch c vadd ~grid:[| n |]
    ~args:
      [ ("a", Kir.Buffer_arg a); ("b", Kir.Buffer_arg b);
        ("out", Kir.Buffer_arg out) ];
  let host = Array.make n 0 in
  Context.d2h c out host;
  Alcotest.(check (array int)) "out = a + b" (Array.init n (fun i -> 3 * i))
    host

let test_parallel_matches_sequential () =
  let n = 1000 in
  let run mode =
    let c = Gpu.Context.create ~mode () in
    let a = Context.alloc c ~name:"a" n in
    let b = Context.alloc c ~name:"b" n in
    let out = Context.alloc c ~name:"out" n in
    Context.h2d c a (Array.init n (fun i -> (i * 7) mod 13));
    Context.h2d c b (Array.init n (fun i -> (i * 3) mod 17));
    Context.launch c vadd ~grid:[| n |]
      ~args:
        [ ("a", Kir.Buffer_arg a); ("b", Kir.Buffer_arg b);
          ("out", Kir.Buffer_arg out) ];
    let host = Array.make n 0 in
    Context.d2h c out host;
    host
  in
  Alcotest.(check (array int))
    "parallel = sequential"
    (run Context.Sequential)
    (run (Context.Parallel 4))

let test_if_and_select () =
  let k =
    Kir.
      {
        kname = "clamp";
        params =
          [ { pname = "src"; kind = In_buffer }; { pname = "dst"; kind = Out_buffer } ];
        grid_rank = 1;
        body =
          [
            Let ("v", Read ("src", Gid 0));
            If
              ( Bin (Lt, Var "v", Int 0),
                [ Store ("dst", Gid 0, Int 0) ],
                [ Store ("dst", Gid 0, Select (Bin (Gt, Var "v", Int 9), Int 9, Var "v")) ]
              );
          ];
      }
  in
  let c = ctx () in
  let src = Context.alloc c ~name:"src" 5 in
  let dst = Context.alloc c ~name:"dst" 5 in
  Context.h2d c src [| -3; 0; 5; 12; 9 |];
  Context.launch c k ~grid:[| 5 |]
    ~args:[ ("src", Kir.Buffer_arg src); ("dst", Kir.Buffer_arg dst) ];
  let host = Array.make 5 0 in
  Context.d2h c dst host;
  Alcotest.(check (array int)) "clamped" [| 0; 0; 5; 9; 9 |] host

let test_for_loop_kernel () =
  (* The Figure 11 tiler pattern: one thread gathers w consecutive
     elements into its private tile slice of the output. *)
  let w = 4 in
  let k =
    Kir.
      {
        kname = "gather_tile";
        params =
          [ { pname = "src"; kind = In_buffer }; { pname = "dst"; kind = Out_buffer } ];
        grid_rank = 1;
        body =
          [
            For
              {
                var = "t";
                lo = Int 0;
                hi = Int w;
                body =
                  [
                    Store
                      ( "dst",
                        Bin (Add, Bin (Mul, Gid 0, Int w), Var "t"),
                        Read ("src", Bin (Add, Bin (Mul, Gid 0, Int w), Var "t"))
                      );
                  ];
              };
          ];
      }
  in
  let c = ctx () in
  let n = 3 in
  let src = Context.alloc c ~name:"src" (n * w) in
  let dst = Context.alloc c ~name:"dst" (n * w) in
  Context.h2d c src (Array.init (n * w) (fun i -> 100 + i));
  Context.launch c k ~grid:[| n |]
    ~args:[ ("src", Kir.Buffer_arg src); ("dst", Kir.Buffer_arg dst) ];
  let host = Array.make (n * w) 0 in
  Context.d2h c dst host;
  Alcotest.(check (array int)) "identity via tiles"
    (Array.init (n * w) (fun i -> 100 + i))
    host

let test_division_by_zero () =
  let k =
    Kir.
      {
        kname = "div0";
        params = [ { pname = "o"; kind = Out_buffer } ];
        grid_rank = 1;
        body = [ Store ("o", Gid 0, Bin (Div, Int 1, Int 0)) ];
      }
  in
  let c = ctx () in
  let o = Context.alloc c ~name:"o" 1 in
  Alcotest.(check bool) "raises Kernel_error" true
    (try
       Context.launch c k ~grid:[| 1 |] ~args:[ ("o", Kir.Buffer_arg o) ];
       false
     with Kir.Kernel_error _ -> true)

let test_unbound_variable () =
  let k =
    Kir.
      {
        kname = "unbound";
        params = [ { pname = "o"; kind = Out_buffer } ];
        grid_rank = 1;
        body = [ Store ("o", Gid 0, Var "x") ];
      }
  in
  let c = ctx () in
  let o = Context.alloc c ~name:"o" 4 in
  match Context.launch c k ~grid:[| 4 |] ~args:[ ("o", Kir.Buffer_arg o) ] with
  | () -> Alcotest.fail "launch of an invalid kernel succeeded"
  | exception Invalid_argument m ->
      let expected = "kernel unbound: unbound variable x" in
      Alcotest.(check bool)
        (Printf.sprintf "message %S names the validate error" m)
        true
        (String.ends_with ~suffix:expected m)

(* o[g] = o[g] + 1 where i[g] > 0: its cost depends on loaded data. *)
let incr_if =
  Kir.
    {
      kname = "incr_if";
      params =
        [
          { pname = "i"; kind = In_buffer }; { pname = "o"; kind = Out_buffer };
        ];
      grid_rank = 1;
      body =
        [
          If
            ( Bin (Gt, Read ("i", Gid 0), Int 0),
              [ Store ("o", Gid 0, Bin (Add, Read ("o", Gid 0), Int 1)) ],
              [] );
        ];
    }

(* A data-dependent kernel is profiled at every launch; the sampled
   threads must not write into the launch's buffers: o[g] = o[g] + 1
   where i[g] > 0 leaves exactly one increment per element. *)
let test_profile_leaves_buffers mode () =
  let k = incr_if in
  Alcotest.(check bool) "data-dependent" false (Kir.cost_data_independent k);
  let c = Gpu.Context.create ~mode () in
  let n = 256 in
  let i = Context.alloc c ~name:"i" n and o = Context.alloc c ~name:"o" n in
  Context.h2d c i (Array.make n 1);
  Context.launch c k ~grid:[| n |]
    ~args:[ ("i", Kir.Buffer_arg i); ("o", Kir.Buffer_arg o) ];
  let host = Array.make n (-1) in
  Context.d2h c o host;
  let expected = if mode = Context.Timing_only then 0 else 1 in
  Alcotest.(check (array int)) "one increment each" (Array.make n expected)
    host

(* A storeless buffer profiles as the zeros it would hold: incr_if
   costs the same in Timing_only as in Sequential over zero inputs,
   and differently over non-zero ones (so the data does matter). *)
let test_profile_storeless_reads_zeros () =
  let n = 256 in
  let profile ?fill mode =
    let c = Gpu.Context.create ~mode () in
    let i = Context.alloc c ~name:"i" n and o = Context.alloc c ~name:"o" n in
    Option.iter (fun v -> Context.h2d c i (Array.make n v)) fill;
    let args = [ ("i", Kir.Buffer_arg i); ("o", Kir.Buffer_arg o) ] in
    let cost = Kir.profile_threads incr_if ~args ~grid:[| n |] in
    Context.launch c incr_if ~grid:[| n |] ~args;
    let kernel_us =
      List.filter_map
        (fun (e : Timeline.event) ->
          if e.Timeline.kind = Timeline.Kernel then Some e.Timeline.us
          else None)
        (Timeline.events (Context.timeline c))
    in
    (cost, kernel_us)
  in
  let zeros = profile Context.Sequential in
  let storeless = profile ~fill:1 Context.Timing_only in
  Alcotest.(check bool) "same cost record" true (fst zeros = fst storeless);
  Alcotest.(check (list (float 0.0))) "same kernel µs" (snd zeros)
    (snd storeless);
  Alcotest.(check bool) "non-zero data costs differently" false
    (fst (profile ~fill:1 Context.Sequential) = fst zeros)

(* ---------- Cost profiling ---------- *)

let dummy_buffers c len =
  (Context.alloc c ~name:"src" len, Context.alloc c ~name:"dst" len)

let test_cost_counts () =
  let c = ctx () in
  let src, dst = dummy_buffers c 256 in
  let cost =
    Kir.profile_threads vadd
      ~args:
        [ ("a", Kir.Buffer_arg src); ("b", Kir.Buffer_arg src);
          ("out", Kir.Buffer_arg dst) ]
      ~grid:[| 128 |]
  in
  Alcotest.(check (float 0.01)) "2 reads" 2.0 cost.Kir.reads_per_thread;
  Alcotest.(check (float 0.01)) "1 write" 1.0 cost.Kir.writes_per_thread;
  Alcotest.(check bool) "some ops" true (cost.Kir.ops_per_thread >= 1.0)

let test_access_classification_row () =
  let c = ctx () in
  let src, dst = dummy_buffers c 4096 in
  let k =
    Kir.
      {
        kname = "rows";
        params =
          [ { pname = "src"; kind = In_buffer }; { pname = "dst"; kind = Out_buffer } ];
        grid_rank = 1;
        body =
          [
            Let ("base", Bin (Mul, Gid 0, Int 8));
            Let ("s0", Read ("src", Var "base"));
            Let ("s1", Bin (Add, Var "s0", Read ("src", Bin (Add, Var "base", Int 1))));
            Let ("s2", Bin (Add, Var "s1", Read ("src", Bin (Add, Var "base", Int 2))));
            Store ("dst", Gid 0, Var "s2");
          ];
      }
  in
  let cost =
    Kir.profile_threads k
      ~args:[ ("src", Kir.Buffer_arg src); ("dst", Kir.Buffer_arg dst) ]
      ~grid:[| 256 |]
  in
  Alcotest.(check bool) "classified Row" true (cost.Kir.access = `Row)

let test_access_classification_column () =
  let c = ctx () in
  let src, dst = dummy_buffers c 8192 in
  let k = col_walk ~w:3 ~stride:720 in
  let cost =
    Kir.profile_threads k
      ~args:[ ("src", Kir.Buffer_arg src); ("dst", Kir.Buffer_arg dst) ]
      ~grid:[| 512 |]
  in
  Alcotest.(check bool) "classified Column" true (cost.Kir.access = `Column)

(* ---------- Perf model ---------- *)

let test_perf_monotone_in_bytes () =
  let d = Device.gtx480 in
  let cost r =
    Kir.
      {
        reads_per_thread = r;
        writes_per_thread = 1.0;
        ops_per_thread = 5.0;
        access = `Row;
        read_burst = 1.0;
        summary = None;
      }
  in
  let t1 = Perf_model.kernel_time_us d ~threads:10000 ~cost:(cost 2.0) ~split:1 in
  let t2 = Perf_model.kernel_time_us d ~threads:10000 ~cost:(cost 20.0) ~split:1 in
  Alcotest.(check bool) "more reads, more time" true (t2 > t1)

let test_perf_split_penalty () =
  let d = Device.gtx480 in
  let cost =
    Kir.
      {
        reads_per_thread = 6.0;
        writes_per_thread = 1.0;
        ops_per_thread = 10.0;
        access = `Row;
        read_burst = 1.0;
        summary = None;
      }
  in
  (* With the default calibration the residual split factor is 1 (the
     cost of splitting is the extra launches and re-read traffic, both
     counted explicitly): five launches covering the same work cost
     strictly more than one. *)
  let t1 = Perf_model.kernel_time_us d ~threads:100000 ~cost ~split:1 in
  let t5 =
    5.0 *. Perf_model.kernel_time_us d ~threads:20000 ~cost ~split:5
  in
  Alcotest.(check bool) "five launches cost more than one" true (t5 > t1);
  Alcotest.(check bool) "split factor is monotone" true
    (Calibration.split_factor 5 <= Calibration.split_factor 1)

let test_perf_burst_effect () =
  let d = Device.gtx480 in
  let cost burst =
    Kir.
      {
        reads_per_thread = 6.0;
        writes_per_thread = 1.0;
        ops_per_thread = 10.0;
        access = `Row;
        read_burst = burst;
        summary = None;
      }
  in
  let short = Perf_model.kernel_time_us d ~threads:100000 ~cost:(cost 6.0) ~split:1 in
  let long = Perf_model.kernel_time_us d ~threads:100000 ~cost:(cost 11.0) ~split:1 in
  Alcotest.(check bool) "longer bursts coalesce worse" true (long > short)

let test_perf_launch_floor () =
  let d = Device.gtx480 in
  let cost =
    Kir.
      { reads_per_thread = 1.0; writes_per_thread = 1.0; ops_per_thread = 1.0;
        access = `Row; read_burst = 1.0; summary = None }
  in
  let t = Perf_model.kernel_time_us d ~threads:1 ~cost ~split:1 in
  Alcotest.(check bool) "at least the launch overhead" true
    (t >= Calibration.kernel_launch_us)

(* ---------- Static cost derivation ---------- *)

(* static_cost must reproduce the execution-counted profile exactly on
   a representative stencil kernel. *)
let test_static_cost_agrees () =
  let c = 64 in
  let read k =
    Kir.Read
      ( "a",
        Kir.Bin
          ( Kir.Add,
            Kir.Bin
              (Kir.Mul, Kir.Bin (Kir.Add, Kir.Gid 0, Kir.Int k), Kir.Int c),
            Kir.Gid 1 ) )
  in
  let k =
    {
      Kir.kname = "static_stencil";
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
              Kir.Bin
                (Kir.Add, Kir.Bin (Kir.Mul, Kir.Gid 0, Kir.Int c), Kir.Gid 1),
              Kir.Bin (Kir.Add, read 0, Kir.Bin (Kir.Add, read 1, read 2)) );
        ];
    }
  in
  let grid = [| 30; c |] in
  let len = 33 * c in
  let args =
    [
      ( "a",
        Kir.Buffer_arg
          { Buffer.id = 0; name = "a"; len; data = Array.make len 0 } );
      ( "out",
        Kir.Buffer_arg
          { Buffer.id = 1; name = "out"; len; data = Array.make len 0 }
      );
    ]
  in
  let dynamic = Kir.profile_threads k ~args ~grid in
  match Kir.static_cost k ~grid with
  | Error m -> Alcotest.failf "static derivation failed: %s" m
  | Ok st ->
      Alcotest.(check (float 0.0)) "reads" dynamic.Kir.reads_per_thread
        st.Kir.reads_per_thread;
      Alcotest.(check (float 0.0)) "writes" dynamic.Kir.writes_per_thread
        st.Kir.writes_per_thread;
      Alcotest.(check (float 0.0)) "ops" dynamic.Kir.ops_per_thread
        st.Kir.ops_per_thread;
      Alcotest.(check (float 0.0)) "burst" dynamic.Kir.read_burst
        st.Kir.read_burst;
      Alcotest.(check bool) "class" true (st.Kir.access = dynamic.Kir.access);
      let s = Option.get st.Kir.summary in
      let b = List.hd s.Kir.as_buffers in
      Alcotest.(check string) "buffer" "a" b.Kir.ba_buffer;
      (* lane stride 1: fully coalesced, no divergence, no stranding *)
      Alcotest.(check (float 0.01)) "efficiency" 1.0 b.Kir.ba_efficiency;
      Alcotest.(check int) "divergent branches" 0 s.Kir.as_divergent_branches;
      Alcotest.(check int) "stranded lanes" 0 s.Kir.as_stranded_lanes

let test_divergence_factor () =
  let d = Device.gtx480 in
  let base =
    Kir.
      {
        reads_per_thread = 2.0;
        writes_per_thread = 1.0;
        ops_per_thread = 400.0;
        access = `Row;
        read_burst = 1.0;
        summary = None;
      }
  in
  Alcotest.(check (float 0.0)) "no summary -> 1" 1.0
    (Perf_model.divergence_factor base);
  let summary =
    Kir.
      {
        as_buffers = [];
        as_branches = [];
        as_divergent_branches = 1;
        as_divergent_ops = 200.0;
        as_stranded_lanes = 0;
        as_warp_size = 32;
      }
  in
  let diverged = { base with Kir.summary = Some summary } in
  Alcotest.(check (float 0.001)) "1 + 200/400" 1.5
    (Perf_model.divergence_factor diverged);
  (* the penalty multiplies the compute term, so a compute-bound kernel
     slows down *)
  let t0 = Perf_model.kernel_time_us d ~threads:100000 ~cost:base ~split:1 in
  let t1 = Perf_model.kernel_time_us d ~threads:100000 ~cost:diverged ~split:1 in
  Alcotest.(check bool) "divergence slows compute-bound kernels" true (t1 > t0)

let test_memcpy_times_calibrated () =
  let d = Device.gtx480 in
  (* One 1080x1920 int plane host->device should take ~1546 us, the
     Table I figure the model is calibrated on. *)
  let t = Perf_model.memcpy_time_us d ~bytes:(1080 * 1920 * 4) ~dir:`H2d in
  Alcotest.(check bool) "h2d within 5% of Table I" true
    (Float.abs (t -. 1546.3) /. 1546.3 < 0.05);
  let t = Perf_model.memcpy_time_us d ~bytes:(480 * 720 * 4) ~dir:`D2h in
  Alcotest.(check bool) "d2h within 5% of Table I" true
    (Float.abs (t -. 219.0) /. 219.0 < 0.08)

(* ---------- Memory accounting ---------- *)

let astring_contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = (i + nl <= hl) && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Live device bytes: {!Context.reset} returns the peak to them. *)
let live_bytes c =
  Context.reset c;
  Context.peak_bytes c

let test_alloc_accounting mode () =
  let c = Gpu.Context.create ~mode () in
  let b1 = Context.alloc c ~name:"b1" 1000 in
  Alcotest.(check bool) "backing store only when executing"
    (mode <> Context.Timing_only) (Buffer.stored b1);
  Alcotest.(check int) "4 bytes per int" 4000 (live_bytes c);
  let b2 = Context.alloc c ~name:"b2" 500 in
  Alcotest.(check int) "cumulative" 6000 (live_bytes c);
  Context.free c b1;
  Alcotest.(check int) "freed" 2000 (live_bytes c);
  Context.free c b2;
  Alcotest.(check int) "round-trip restores accounting" 0
    (live_bytes c);
  Alcotest.(check bool) "double free rejected" true
    (try
       Context.free c b2;
       false
     with Invalid_argument m ->
       (* The message names the offending buffer. *)
       astring_contains m "b2")

let test_peak_and_arena mode () =
  let c = Gpu.Context.create ~mode () in
  let b1 = Context.alloc c ~name:"b1" 1000 in
  let b2 = Context.alloc c ~name:"b2" 500 in
  Alcotest.(check int) "peak tracks both live" 6000 (Context.peak_bytes c);
  Context.free c b1;
  Context.free c b2;
  (* Same sizes come back off the arena: the high-water mark stays put
     instead of doubling. *)
  let b3 = Context.alloc c ~name:"b3" 1000 in
  let b4 = Context.alloc c ~name:"b4" 500 in
  Alcotest.(check int) "peak unchanged after reuse" 6000 (Context.peak_bytes c);
  Alcotest.(check bool) "recycled store is zeroed" true
    (Array.for_all (( = ) 0) (Gpu.Buffer.to_array b3));
  Alcotest.(check int) "live again" 6000 (live_bytes c);
  Context.free c b3;
  Context.free c b4

let test_reset_drains_arena () =
  let c = ctx () in
  let reused () =
    Option.value ~default:0 (Obs.Metrics.find "fusion.buffers_reused")
  in
  let b1 = Context.alloc c ~name:"b1" 1000 in
  Context.free c b1;
  Alcotest.(check int) "peak remembers the freed buffer" 4000
    (Context.peak_bytes c);
  Context.reset c;
  Alcotest.(check int) "reset returns peak to live bytes" 0
    (Context.peak_bytes c);
  let before = reused () in
  let b2 = Context.alloc c ~name:"b2" 1000 in
  (* The freed store must not come back off the arena after a reset. *)
  Alcotest.(check int) "arena drained by reset" before (reused ());
  Context.free c b2;
  let b3 = Context.alloc c ~name:"b3" 1000 in
  Alcotest.(check int) "arena recycles again after reset" (before + 1)
    (reused ());
  Context.free c b3

let test_out_of_memory mode () =
  let c = Gpu.Context.create ~mode () in
  Alcotest.(check bool) "allocation beyond 1.5 GB rejected" true
    (try
       ignore (Context.alloc c ~name:"huge" (500 * 1024 * 1024));
       false
     with Context.Out_of_memory m -> astring_contains m "huge")

(* ---------- Timeline & profiler ---------- *)

let metric name = Option.value ~default:0 (Obs.Metrics.find name)

(* The same upload/launch/read-back in each mode: the events (kind,
   bytes, µs) and the traffic counters must not depend on the mode;
   only the read-back does, a timing-only one yielding zeros. *)
let test_timeline_events () =
  let run mode =
    let c = Gpu.Context.create ~mode () in
    let traffic () = (metric "gpu.h2d_bytes", metric "gpu.d2h_bytes") in
    let h2d0, d2h0 = traffic () in
    let a = Context.alloc c ~name:"a" 10 in
    Context.h2d c a (Array.make 10 1);
    let out = Context.alloc c ~name:"o" 10 in
    Context.launch c vadd ~grid:[| 10 |]
      ~args:
        [ ("a", Kir.Buffer_arg a); ("b", Kir.Buffer_arg a);
          ("out", Kir.Buffer_arg out) ];
    let host = Array.make 10 (-1) in
    Context.d2h c out host;
    let h2d1, d2h1 = traffic () in
    let events =
      List.map
        (fun (e : Timeline.event) -> (e.Timeline.kind, e.bytes, e.us))
        (Timeline.events (Context.timeline c))
    in
    (c, events, (h2d1 - h2d0, d2h1 - d2h0), host)
  in
  let c, events, traffic, host = run Context.Sequential in
  Alcotest.(check int) "3 events" 3
    (List.length (Timeline.events (Context.timeline c)));
  Alcotest.(check bool) "time accumulated" true (Context.elapsed_us c > 0.0);
  Alcotest.(check (array int)) "read-back" (Array.make 10 2) host;
  let _, t_events, t_traffic, t_host = run Context.Timing_only in
  Alcotest.(check bool) "timing-only events identical" true
    (events = t_events);
  Alcotest.(check (pair int int)) "timing-only h2d/d2h bytes" traffic
    t_traffic;
  Alcotest.(check (array int)) "timing-only read-back is zeros"
    (Array.make 10 0) t_host

let test_timeline_replay () =
  let t = Timeline.create () in
  Timeline.record t
    { Timeline.label = "k"; detail = "k"; kind = Timeline.Kernel; us = 5.0;
      start_us = 0.0; bytes = 0; threads = 1 };
  Timeline.replay t ~times:300;
  Alcotest.(check int) "300 events" 300 (List.length (Timeline.events t));
  Alcotest.(check (float 0.001)) "300x time" 1500.0 (Timeline.total_us t)

let test_timeline_start_offsets () =
  let t = Timeline.create () in
  let ev us =
    { Timeline.label = "k"; detail = "k"; kind = Timeline.Kernel; us;
      (* deliberately bogus: record must overwrite it *)
      start_us = 99.0; bytes = 0; threads = 1 }
  in
  List.iter (Timeline.record t) [ ev 5.0; ev 10.0; ev 2.0 ];
  Alcotest.(check (list (float 1e-9))) "serial starts" [ 0.0; 5.0; 15.0 ]
    (List.map (fun (e : Timeline.event) -> e.Timeline.start_us)
       (Timeline.events t));
  Alcotest.(check (float 1e-9)) "clock = last start + dur" 17.0
    (Timeline.total_us t);
  (* append re-assigns offsets on the destination's clock. *)
  let src = Timeline.create () in
  Timeline.record src (ev 4.0);
  Timeline.append t src;
  Alcotest.(check (float 1e-9)) "appended start" 17.0
    ((List.nth (Timeline.events t) 3).Timeline.start_us);
  (* replay continues the clock rather than restarting it. *)
  Timeline.replay t ~times:2;
  Alcotest.(check int) "8 events" 8 (List.length (Timeline.events t));
  Alcotest.(check (float 1e-9)) "replayed first start" 21.0
    ((List.nth (Timeline.events t) 4).Timeline.start_us);
  Alcotest.(check (float 1e-9)) "total doubled" 42.0 (Timeline.total_us t)

let test_trace_export_device_tracks () =
  Obs.Tracer.set_enabled true;
  Trace_export.clear ();
  let c = ctx () in
  let n = 32 in
  let bufs = vadd_buffers c n in
  launch_vadd c n bufs;
  launch_vadd c n bufs;
  let _, _, out = bufs in
  Context.d2h c out (Array.make n 0);
  Trace_export.register ~name:"test device" (Context.timeline c);
  let doc = Trace_export.device_only_json () in
  let count = List.length (Timeline.events (Context.timeline c)) in
  Obs.Tracer.set_enabled false;
  Trace_export.clear ();
  Alcotest.(check int) "one slice per timeline event" count
    (List.length (Trace_export.device_events_of (Context.timeline c)));
  match Obs.Json.parse doc with
  | Error m -> Alcotest.failf "trace is not valid JSON: %s" m
  | Ok j -> (
      match Obs.Json.member "traceEvents" j with
      | Some (Obs.Json.Arr evs) ->
          Alcotest.(check int) "device slices in the document" count
            (List.length
               (List.filter
                  (fun e ->
                    Obs.Json.member "ph" e = Some (Obs.Json.Str "X"))
                  evs))
      | _ -> Alcotest.fail "no traceEvents array")

let test_trace_export_mode_independent () =
  (* The modelled event stream (and hence the exported device track) is
     identical whether kernels execute sequentially or on domains. *)
  let run mode =
    let c = Gpu.Context.create ~mode () in
    let n = 128 in
    let bufs = vadd_buffers c n in
    launch_vadd c n bufs;
    launch_vadd c n bufs;
    Trace_export.device_events_of (Context.timeline c)
  in
  Alcotest.(check bool) "sequential = parallel device slices" true
    (run Context.Sequential = run (Context.Parallel 4))

let test_profiler_grouping () =
  let t = Timeline.create () in
  let kernel name =
    { Timeline.label = "H. Filter"; detail = name; kind = Timeline.Kernel;
      us = 10.0; start_us = 0.0; bytes = 0; threads = 1 }
  in
  (* 2 distinct kernels launched 3 rounds = 6 events, #calls must be 3. *)
  for _ = 1 to 3 do
    Timeline.record t (kernel "k_r");
    Timeline.record t (kernel "k_g")
  done;
  Timeline.record t
    { Timeline.label = "memcpyHtoDasync"; detail = "frame";
      kind = Timeline.Memcpy_h2d; us = 40.0; start_us = 0.0; bytes = 100;
      threads = 0 };
  let rows = Profiler.rows t in
  Alcotest.(check int) "2 rows" 2 (List.length rows);
  let kr = List.hd rows in
  Alcotest.(check string) "kernel group name" "H. Filter (2 kernels)"
    kr.Profiler.operation;
  Alcotest.(check int) "#calls = rounds" 3 kr.Profiler.calls;
  Alcotest.(check (float 0.01)) "kernel share" 60.0 kr.Profiler.share_pct;
  let copy = List.nth rows 1 in
  Alcotest.(check string) "copy row" "memcpyHtoDasync" copy.Profiler.operation;
  Alcotest.(check int) "copy calls" 1 copy.Profiler.calls

(* ---------- Overlap model ---------- *)

let test_overlap_makespan () =
  (* 3 stages of 2/5/1 over 4 rounds: 8 + 3*5 = 23. *)
  Alcotest.(check (float 0.001)) "makespan" 23.0
    (Overlap.makespan_us ~stages:[ 2.0; 5.0; 1.0 ] ~rounds:4);
  Alcotest.(check (float 0.001)) "serial" 32.0
    (Overlap.serial_us ~stages:[ 2.0; 5.0; 1.0 ] ~rounds:4);
  Alcotest.(check (float 0.001)) "one round is just the sum" 8.0
    (Overlap.makespan_us ~stages:[ 2.0; 5.0; 1.0 ] ~rounds:1)

let test_overlap_never_worse () =
  List.iter
    (fun stages ->
      List.iter
        (fun rounds ->
          Alcotest.(check bool) "pipelined <= serial" true
            (Overlap.makespan_us ~stages ~rounds
            <= Overlap.serial_us ~stages ~rounds +. 1e-9))
        [ 1; 2; 7; 300 ])
    [ [ 1.0 ]; [ 3.0; 3.0 ]; [ 2.0; 5.0; 1.0 ]; [ 0.0; 4.0 ] ]

let test_overlap_of_timeline () =
  let t = Timeline.create () in
  let ev kind us =
    { Timeline.label = "x"; detail = "x"; kind; us; start_us = 0.0; bytes = 0;
      threads = 0 }
  in
  Timeline.record t (ev Timeline.Memcpy_h2d 10.0);
  Timeline.record t (ev Timeline.Kernel 4.0);
  Timeline.record t (ev Timeline.Kernel 6.0);
  Timeline.record t (ev Timeline.Memcpy_d2h 2.0);
  let s = Overlap.of_timeline t ~rounds:10 in
  (* serial 220 us; pipelined 22 + 9*10 = 112 us. *)
  Alcotest.(check (float 1e-9)) "serial" 0.00022 s.Overlap.serial_s;
  Alcotest.(check (float 1e-9)) "pipelined" 0.000112 s.Overlap.pipelined_s;
  Alcotest.(check bool) "saving ~49%" true
    (Float.abs (s.Overlap.saving_pct -. 49.09) < 0.1)

let test_overlap_zero_stages () =
  (* A zero-duration stage contributes nothing to the fill but still
     pipelines: bottleneck is the 5.0 stage. *)
  Alcotest.(check (float 0.001)) "zero stages drop out" 15.0
    (Overlap.makespan_us ~stages:[ 0.0; 5.0; 0.0 ] ~rounds:3);
  Alcotest.(check (float 0.001)) "all-zero stages" 0.0
    (Overlap.makespan_us ~stages:[ 0.0; 0.0 ] ~rounds:7);
  (* rounds = 1 with a zero stage: plain sum. *)
  Alcotest.(check (float 0.001)) "single round" 5.0
    (Overlap.makespan_us ~stages:[ 0.0; 5.0 ] ~rounds:1)

let test_overlap_invalid () =
  Alcotest.(check bool) "empty stages rejected" true
    (try
       ignore (Overlap.makespan_us ~stages:[] ~rounds:3);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero rounds rejected" true
    (try
       ignore (Overlap.makespan_us ~stages:[ 1.0 ] ~rounds:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative stage rejected" true
    (try
       ignore (Overlap.makespan_us ~stages:[ 2.0; -1.0 ] ~rounds:2);
       false
     with Invalid_argument _ -> true)

(* ---------- Emitters ---------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let vadd_2d =
  Kir.
    {
      kname = "vadd2d";
      params =
        [
          { pname = "a"; kind = In_buffer };
          { pname = "out"; kind = Out_buffer };
        ];
      grid_rank = 2;
      body =
        [
          Let ("lin", Bin (Add, Bin (Mul, Gid 0, Int 720), Gid 1));
          Store ("out", Var "lin", Read ("a", Var "lin"));
        ];
    }

(* ---------- Div/Mod C semantics ---------- *)

(* The IR documents C semantics for Div and Mod: quotients truncate
   towards zero and the remainder's sign follows the dividend.  The
   functional evaluator must implement exactly that, and both emitters
   must render plain C [/] and [%] so the generated sources agree. *)

let divmod_kernel =
  Kir.
    {
      kname = "divmod";
      params =
        [
          { pname = "a"; kind = Scalar };
          { pname = "b"; kind = Scalar };
          { pname = "out"; kind = Out_buffer };
        ];
      grid_rank = 1;
      body =
        [
          Store ("out", Int 0, Bin (Div, Param "a", Param "b"));
          Store ("out", Int 1, Bin (Mod, Param "a", Param "b"));
        ];
    }

(* C-truncating reference, written out rather than leaning on OCaml's
   operators so the test states the law it checks. *)
let c_divmod a b =
  let q = abs a / abs b in
  let q = if (a < 0) <> (b < 0) then -q else q in
  (q, a - (b * q))

let test_divmod_c_semantics () =
  let c = ctx () in
  let out = Context.alloc c ~name:"out" 2 in
  List.iter
    (fun (a, b) ->
      Context.launch c divmod_kernel ~grid:[| 1 |]
        ~args:
          [
            ("a", Kir.Scalar_arg a); ("b", Kir.Scalar_arg b);
            ("out", Kir.Buffer_arg out);
          ];
      let host = Array.make 2 0 in
      Context.d2h c out host;
      let q, r = c_divmod a b in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%d div/mod %d" a b)
        (q, r)
        (host.(0), host.(1)))
    [
      (7, 2); (-7, 2); (7, -2); (-7, -2); (9, 4); (-9, 4); (9, -4);
      (-9, -4); (1, 8); (-1, 8); (8, 8); (-8, 8); (0, 5); (0, -5);
    ]

let test_divmod_emitters_agree () =
  (* Both backends must print the raw C operators (no floor-division
     shims), so the device executes the same truncating semantics the
     evaluator implements. *)
  List.iter
    (fun src ->
      Alcotest.(check bool) "plain / emitted" true (contains ~needle:"a / b" src);
      Alcotest.(check bool) "plain % emitted" true (contains ~needle:"a % b" src))
    [
      Cuda.Emit.kernel ~grid:[| 1 |] divmod_kernel;
      Opencl.Emit.kernel ~grid:[| 1 |] divmod_kernel;
      Metal.Emit.kernel ~grid:[| 1 |] divmod_kernel;
    ]

let test_cuda_emit () =
  let src = Cuda.Emit.kernel ~grid:[| 1080; 720 |] vadd_2d in
  Alcotest.(check bool) "__global__" true (contains ~needle:"__global__ void" src);
  Alcotest.(check bool) "guard" true (contains ~needle:"gid0 >= 1080" src);
  Alcotest.(check bool) "threadIdx" true (contains ~needle:"threadIdx.x" src)

let test_opencl_emit () =
  let src = Opencl.Emit.kernel ~grid:[| 1080; 720 |] vadd_2d in
  Alcotest.(check bool) "__kernel" true (contains ~needle:"__kernel void" src);
  Alcotest.(check bool) "iGID" true
    (contains ~needle:"int iGID = get_global_id(0);" src);
  Alcotest.(check bool) "gid decomposition" true
    (contains ~needle:"iGID % 720" src);
  Alcotest.(check bool) "guard" true
    (contains ~needle:(Printf.sprintf "iGID >= %d" (1080 * 720)) src)

let test_metal_emit () =
  let src = Metal.Emit.kernel ~grid:[| 1080; 720 |] vadd_2d in
  Alcotest.(check bool) "kernel void" true (contains ~needle:"kernel void" src);
  Alcotest.(check bool) "buffer binding" true
    (contains ~needle:"[[buffer(0)]]" src);
  Alcotest.(check bool) "output address space" true
    (contains ~needle:"device int *out [[buffer(1)]]" src);
  Alcotest.(check bool) "grid id attribute" true
    (contains ~needle:"uint iGID [[thread_position_in_grid]]" src);
  Alcotest.(check bool) "guard with unsigned literal" true
    (contains ~needle:(Printf.sprintf "iGID >= %du" (1080 * 720)) src);
  Alcotest.(check bool) "gid decomposition" true
    (contains ~needle:"% 720" src)

let test_cuda_program_shape () =
  let src =
    Cuda.Emit.program ~name:"downscaler"
      ~kernels:[ (vadd, [| 64 |]) ]
      ~steps:
        [
          C_print.Comment "transfer in";
          C_print.Alloc { dst = "d_a"; name = "a"; len = 64 };
          C_print.Upload { dst = "d_a"; src = "h_a"; len = 64 };
          C_print.Launch
            {
              kernel = vadd;
              grid = [| 64 |];
              args = [ ("a", "d_a"); ("b", "d_a"); ("out", "d_a") ];
              label = "vadd";
              split = 1;
            };
          C_print.Download { dst = "h_a"; src = "d_a"; len = 64 };
          C_print.Free { name = "d_a" };
        ]
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~needle src))
    [
      "cudaMalloc";
      "cudaMemcpyHostToDevice";
      "cudaMemcpyDeviceToHost";
      "vadd<<<grid, block>>>";
      "cudaFree(d_a);";
      "cudaDeviceSynchronize";
    ]

let test_opencl_host_shape () =
  let src =
    Opencl.Emit.host_program ~name:"downscaler"
      ~steps:
        [
          C_print.Alloc { dst = "d_in"; name = "in"; len = 128 };
          C_print.Upload { dst = "d_in"; src = "h_in"; len = 128 };
          C_print.Launch
            {
              kernel = vadd;
              grid = [| 128 |];
              args = [ ("a", "d_in"); ("b", "d_in"); ("out", "d_in") ];
              label = "vadd";
              split = 1;
            };
          C_print.Download { dst = "h_in"; src = "d_in"; len = 128 };
          C_print.Free { name = "d_in" };
        ]
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~needle src))
    [
      "clCreateBuffer";
      "clEnqueueWriteBuffer";
      "clEnqueueNDRangeKernel";
      "clEnqueueReadBuffer";
      "clReleaseMemObject(d_in);";
    ]

let test_makefile () =
  let src = Opencl.Emit.makefile ~name:"downscaler" in
  Alcotest.(check bool) "links OpenCL" true (contains ~needle:"-lOpenCL" src)

(* ---------- Benchmark spellings of Gpu.Context ---------- *)

(* perfbench/perf.ml creates and reads each route's device through
   Cuda.Runtime and Opencl.Runtime: both must give the plain GTX480
   context, and their elapsed_us must be the context's. *)
let check_facade c elapsed_us =
  let out = Context.alloc c ~name:"out" 16 in
  let a = Context.alloc c ~name:"a" 16 in
  Context.h2d c a (Array.init 16 (fun i -> i));
  Alcotest.(check (float 0.0)) "GTX480 upload time"
    (Perf_model.memcpy_time_us Device.gtx480 ~bytes:64 ~dir:`H2d)
    (Context.elapsed_us c);
  launch_vadd c 16 (a, a, out);
  let host = Array.make 16 0 in
  Context.d2h c out host;
  Alcotest.(check (array int)) "doubled" (Array.init 16 (fun i -> 2 * i)) host;
  Alcotest.(check int) "profile has rows" 3
    (List.length (Profiler.rows (Context.timeline c)));
  Alcotest.(check (float 0.0)) "elapsed_us" (Context.elapsed_us c)
    (elapsed_us c)

let test_opencl_facade_roundtrip () =
  check_facade (Opencl.Runtime.create_context ()) Opencl.Runtime.elapsed_us

let test_cuda_facade_roundtrip () =
  check_facade (Cuda.Runtime.init ()) Cuda.Runtime.elapsed_us

(* ---------- Property: compiled = interpreted ---------- *)

(* ---------- Domain pool ---------- *)

let test_pool_parallel_for () =
  let pool = Pool.create ~workers:3 () in
  let n = 10_000 in
  let out = Array.make n 0 in
  Pool.parallel_for ~chunks:8 pool ~lo:0 ~hi:n (fun lo hi ->
      for i = lo to hi - 1 do
        out.(i) <- 2 * i
      done);
  Pool.shutdown pool;
  Alcotest.(check (array int)) "every index covered exactly once"
    (Array.init n (fun i -> 2 * i))
    out

let test_pool_map_list_order () =
  let pool = Pool.create ~workers:2 () in
  let got = Pool.map_list pool (List.init 50 (fun i -> fun () -> i * i)) in
  Pool.shutdown pool;
  Alcotest.(check (list int))
    "results in submission order"
    (List.init 50 (fun i -> i * i))
    got

let test_pool_nested () =
  (* A pooled task that itself submits a batch: the caller helps drain
     the queue, so this must not deadlock even with few workers. *)
  let pool = Pool.create ~workers:1 () in
  let got =
    Pool.map_list pool
      (List.init 4 (fun outer ->
           fun () ->
             List.fold_left ( + ) 0
               (Pool.map_list pool
                  (List.init 4 (fun j -> fun () -> (10 * outer) + j)))))
  in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "nested batches" [ 6; 46; 86; 126 ] got

let test_pool_exception () =
  let pool = Pool.create ~workers:2 () in
  let raised =
    try
      ignore
        (Pool.map_list pool
           (List.init 8 (fun i -> fun () -> if i = 5 then failwith "boom")));
      false
    with Failure m -> m = "boom"
  in
  let alive = Pool.map_list pool (List.init 3 (fun i -> fun () -> i)) in
  Pool.shutdown pool;
  Alcotest.(check bool) "task failure re-raised to the caller" true raised;
  Alcotest.(check (list int)) "pool survives the failure" [ 0; 1; 2 ] alive

(* ---------- Kernel-compilation and cost caches ---------- *)

let test_compile_cache_counters () =
  let c = ctx () in
  (* A private copy of the kernel: compiles in the process-wide prepare
     memo are attributed to the first context that sees the kernel, and
     other tests in this binary launch [vadd] too. *)
  let vadd = { vadd with Kir.kname = "vadd_cache_counters" } in
  let n = 256 in
  let a = Context.alloc c ~name:"a" n in
  let b = Context.alloc c ~name:"b" n in
  let out = Context.alloc c ~name:"out" n in
  Context.h2d c a (Array.init n (fun i -> i mod 19));
  Context.h2d c b (Array.init n (fun i -> i mod 23));
  let launches = 10 in
  for _ = 1 to launches do
    Context.launch c vadd ~grid:[| n |]
      ~args:
        [ ("a", Kir.Buffer_arg a); ("b", Kir.Buffer_arg b);
          ("out", Kir.Buffer_arg out) ]
  done;
  let s = Context.cache_stats c in
  Alcotest.(check int) "compiled once per kernel" 1 s.Context.compiles;
  Alcotest.(check int)
    "every other launch hits the compile cache" (launches - 1)
    s.Context.compile_hits;
  Alcotest.(check int) "cost profiled once" 1 s.Context.cost_profiles;
  Alcotest.(check int)
    "every other launch hits the cost cache" (launches - 1)
    s.Context.cost_hits

let test_cost_cache_data_dependent_not_cached () =
  (* A kernel whose read address depends on buffer contents must be
     re-profiled on every launch: its cost can change when the data
     changes even though kernel, grid and shapes are identical. *)
  let k =
    Kir.
      {
        kname = "gather";
        params =
          [ { pname = "idx"; kind = In_buffer };
            { pname = "src"; kind = In_buffer };
            { pname = "dst"; kind = Out_buffer } ];
        grid_rank = 1;
        body = [ Store ("dst", Gid 0, Read ("src", Read ("idx", Gid 0))) ];
      }
  in
  Alcotest.(check bool)
    "taint analysis rejects data-dependent addressing" false
    (Kir.cost_data_independent k);
  Alcotest.(check bool)
    "vadd is data-independent" true
    (Kir.cost_data_independent vadd);
  let c = ctx () in
  let n = 64 in
  let idx = Context.alloc c ~name:"idx" n in
  let src = Context.alloc c ~name:"src" n in
  let dst = Context.alloc c ~name:"dst" n in
  Context.h2d c idx (Array.init n (fun i -> (n - 1) - i));
  Context.h2d c src (Array.init n (fun i -> i * 3));
  for _ = 1 to 5 do
    Context.launch c k ~grid:[| n |]
      ~args:
        [ ("idx", Kir.Buffer_arg idx); ("src", Kir.Buffer_arg src);
          ("dst", Kir.Buffer_arg dst) ]
  done;
  let s = Context.cache_stats c in
  Alcotest.(check int) "no cost-cache entries" 0 s.Context.cost_profiles;
  Alcotest.(check int) "no cost-cache hits" 0 s.Context.cost_hits

let test_context_reset_clears_stats () =
  let c = ctx () in
  let n = 64 in
  let bufs = vadd_buffers c n in
  launch_vadd c n bufs;
  launch_vadd c n bufs;
  let zero =
    { Context.compiles = 0; compile_hits = 0; cost_profiles = 0; cost_hits = 0 }
  in
  Alcotest.(check bool) "stats accumulated" true (Context.cache_stats c <> zero);
  Context.reset c;
  Alcotest.(check int) "timeline cleared" 0
    (List.length (Timeline.events (Context.timeline c)));
  Alcotest.(check bool) "stats cleared" true (Context.cache_stats c = zero);
  (* The caches themselves survive: the next launch is a hit, not a
     recompile. *)
  launch_vadd c n bufs;
  let s = Context.cache_stats c in
  Alcotest.(check int) "no recompile after reset" 0 s.Context.compiles;
  Alcotest.(check int) "compile cache survived reset" 1 s.Context.compile_hits

let test_metrics_launch_invariant () =
  (* Process-wide invariant over this test's launches: every launch in
     a functional mode either compiles its kernel or hits the cache. *)
  let m name = Option.value ~default:0 (Obs.Metrics.find name) in
  let compiles0 = m "gpu.compiles" in
  let hits0 = m "gpu.compile_hits" in
  let launches0 = m "gpu.launches" in
  let c = ctx () in
  let n = 64 in
  let bufs = vadd_buffers c n in
  for _ = 1 to 7 do launch_vadd c n bufs done;
  Alcotest.(check int) "7 launches counted" 7 (m "gpu.launches" - launches0);
  Alcotest.(check int) "compiles + compile_hits = launches"
    (m "gpu.launches" - launches0)
    (m "gpu.compiles" - compiles0 + (m "gpu.compile_hits" - hits0))

(* ---------- Pooled execution = sequential (paper's filter kernels) --- *)

(* The downscaler's filters as hand-written 2-D kernels (the same
   window arithmetic as [Video.Downscaler]); used to check that pooled
   execution is bit-identical to sequential at several pool sizes. *)
let h_filter_kernel ~cols =
  let out_cols = cols / 8 * 3 in
  let read t =
    Kir.Read
      ( "src",
        Kir.Bin
          ( Kir.Add,
            Kir.Var "row",
            Kir.Bin
              (Kir.Mod, Kir.Bin (Kir.Add, Kir.Var "base", Kir.Int t), Kir.Int cols)
          ) )
  in
  let sum = List.fold_left (fun acc t -> Kir.Bin (Kir.Add, acc, read t)) (read 0) [ 1; 2; 3; 4; 5 ] in
  Kir.
    {
      kname = "h_filter";
      params =
        [ { pname = "src"; kind = In_buffer }; { pname = "dst"; kind = Out_buffer } ];
      grid_rank = 2;
      body =
        [
          Let ("k", Bin (Mod, Gid 1, Int 3));
          Let
            ( "off",
              Select
                ( Bin (Eq, Var "k", Int 0),
                  Int 0,
                  Select (Bin (Eq, Var "k", Int 1), Int 2, Int 5) ) );
          Let
            ( "base",
              Bin (Add, Bin (Mul, Bin (Div, Gid 1, Int 3), Int 8), Var "off") );
          Let ("row", Bin (Mul, Gid 0, Int cols));
          Let ("s", sum);
          Store
            ( "dst",
              Bin (Add, Bin (Mul, Gid 0, Int out_cols), Gid 1),
              Bin (Sub, Bin (Div, Var "s", Int 6), Bin (Mod, Var "s", Int 6)) );
        ];
    }

let v_filter_kernel ~rows ~cols =
  let read t =
    Kir.Read
      ( "src",
        Kir.Bin
          ( Kir.Add,
            Kir.Bin
              ( Kir.Mul,
                Kir.Bin
                  ( Kir.Mod,
                    Kir.Bin (Kir.Add, Kir.Var "base", Kir.Int t),
                    Kir.Int rows ),
                Kir.Int cols ),
            Kir.Gid 1 ) )
  in
  let sum = List.fold_left (fun acc t -> Kir.Bin (Kir.Add, acc, read t)) (read 0) [ 1; 2; 3; 4; 5 ] in
  Kir.
    {
      kname = "v_filter";
      params =
        [ { pname = "src"; kind = In_buffer }; { pname = "dst"; kind = Out_buffer } ];
      grid_rank = 2;
      body =
        [
          Let ("k", Bin (Mod, Gid 0, Int 4));
          Let
            ( "off",
              Select
                ( Bin (Eq, Var "k", Int 0),
                  Int 0,
                  Select
                    ( Bin (Eq, Var "k", Int 1),
                      Int 2,
                      Select (Bin (Eq, Var "k", Int 2), Int 5, Int 8) ) ) );
          Let
            ( "base",
              Bin (Add, Bin (Mul, Bin (Div, Gid 0, Int 4), Int 9), Var "off") );
          Let ("s", sum);
          Store
            ( "dst",
              Bin (Add, Bin (Mul, Gid 0, Int cols), Gid 1),
              Bin (Sub, Bin (Div, Var "s", Int 6), Bin (Mod, Var "s", Int 6)) );
        ];
    }

let test_pooled_filters_match_sequential () =
  let rows = 27 and cols = 32 in
  let out_cols = cols / 8 * 3 in
  let out_rows = rows / 9 * 4 in
  let input = Array.init (rows * cols) (fun i -> ((i * 37) + (i / cols)) mod 251) in
  let run mode =
    let c = Gpu.Context.create ~mode () in
    let src = Context.alloc c ~name:"src" (rows * cols) in
    let mid = Context.alloc c ~name:"mid" (rows * out_cols) in
    let dst = Context.alloc c ~name:"dst" (out_rows * out_cols) in
    Context.h2d c src input;
    Context.launch c (h_filter_kernel ~cols) ~grid:[| rows; out_cols |]
      ~args:[ ("src", Kir.Buffer_arg src); ("dst", Kir.Buffer_arg mid) ];
    Context.launch c
      (v_filter_kernel ~rows ~cols:out_cols)
      ~grid:[| out_rows; out_cols |]
      ~args:[ ("src", Kir.Buffer_arg mid); ("dst", Kir.Buffer_arg dst) ];
    let host = Array.make (out_rows * out_cols) 0 in
    Context.d2h c dst host;
    ( host,
      Context.elapsed_us c,
      List.length (Timeline.events (Context.timeline c)) )
  in
  let seq_out, seq_us, seq_events = run Context.Sequential in
  List.iter
    (fun domains ->
      let out, us, events = run (Context.Parallel domains) in
      let name fmt = Printf.sprintf fmt domains in
      Alcotest.(check (array int)) (name "%d domains: bit-identical") seq_out out;
      Alcotest.(check (float 0.0)) (name "%d domains: same modelled time") seq_us us;
      Alcotest.(check int) (name "%d domains: same event count") seq_events events)
    [ 1; 2; 4 ]

let prop_compile_matches_interpretation =
  (* Random affine kernels: out[i] = c0 + c1*i + src[(i*c2 + c3) mod n]. *)
  let arb =
    QCheck.make
      ~print:(fun (c0, c1, c2, c3) ->
        Printf.sprintf "c0=%d c1=%d c2=%d c3=%d" c0 c1 c2 c3)
      QCheck.Gen.(
        quad (int_range (-9) 9) (int_range (-9) 9) (int_range 0 5)
          (int_range 0 31))
  in
  QCheck.Test.make ~name:"launch result matches direct evaluation" ~count:100
    arb (fun (c0, c1, c2, c3) ->
      let n = 32 in
      let k =
        Kir.
          {
            kname = "affine";
            params =
              [ { pname = "src"; kind = In_buffer };
                { pname = "dst"; kind = Out_buffer } ];
            grid_rank = 1;
            body =
              [
                Let
                  ( "addr",
                    Bin
                      ( Mod,
                        Bin (Add, Bin (Mul, Gid 0, Int c2), Int c3),
                        Int n ) );
                Store
                  ( "dst",
                    Gid 0,
                    Bin
                      ( Add,
                        Bin (Add, Int c0, Bin (Mul, Int c1, Gid 0)),
                        Read ("src", Var "addr") ) );
              ];
          }
      in
      let c = ctx () in
      let src = Context.alloc c ~name:"src" n in
      let dst = Context.alloc c ~name:"dst" n in
      let data = Array.init n (fun i -> (i * 31) mod 7) in
      Context.h2d c src data;
      Context.launch c k ~grid:[| n |]
        ~args:[ ("src", Kir.Buffer_arg src); ("dst", Kir.Buffer_arg dst) ];
      let got = Array.make n 0 in
      Context.d2h c dst got;
      let expected =
        Array.init n (fun i -> c0 + (c1 * i) + data.(((i * c2) + c3) mod n))
      in
      got = expected)

(* ---------- Topology, scheduler and cluster ---------- *)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* A single-device topology must charge host links exactly what
   [Perf_model.memcpy_time_us] charged before topologies existed, so
   all pre-existing single-device accounting is bit-identical. *)
let test_topology_matches_perf_model () =
  let d = Device.gtx480 in
  let topo = Topology.single d in
  List.iter
    (fun bytes ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "h2d %d bytes" bytes)
        (Perf_model.memcpy_time_us d ~bytes ~dir:`H2d)
        (Topology.transfer_time_us topo ~src:Topology.Host
           ~dst:(Topology.Dev 0) ~bytes);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "d2h %d bytes" bytes)
        (Perf_model.memcpy_time_us d ~bytes ~dir:`D2h)
        (Topology.transfer_time_us topo ~src:(Topology.Dev 0)
           ~dst:Topology.Host ~bytes))
    [ 0; 1; 4096; 288 * 352 * 4; 1920 * 1080 * 4 ]

let test_topology_peer_vs_two_hop () =
  let d = Device.gtx480 in
  let peer = Topology.uniform ~devices:2 d in
  let hop = Topology.of_devices ~peer_linked:false [ d; d ] in
  let src = Topology.Dev 0 and dst = Topology.Dev 1 in
  Alcotest.(check bool) "peer route" true
    (Topology.route peer ~src ~dst = Topology.Peer);
  Alcotest.(check bool) "two-hop route" true
    (Topology.route hop ~src ~dst = Topology.Two_hop);
  let bytes = 1 lsl 20 in
  let t_peer = Topology.transfer_time_us peer ~src ~dst ~bytes in
  let t_hop = Topology.transfer_time_us hop ~src ~dst ~bytes in
  Alcotest.(check bool) "peer link beats staging through the host" true
    (t_peer < t_hop);
  (* Store-and-forward: the two-hop time is exactly d2h + h2d. *)
  Alcotest.(check (float 1e-9)) "two-hop pays both host links" t_hop
    (Perf_model.memcpy_time_us d ~bytes ~dir:`D2h
    +. Perf_model.memcpy_time_us d ~bytes ~dir:`H2d)

let test_topology_invalid () =
  let topo = Topology.uniform ~devices:2 Device.gtx480 in
  Alcotest.(check bool) "host->host" true
    (raises_invalid (fun () ->
         Topology.transfer_time_us topo ~src:Topology.Host ~dst:Topology.Host
           ~bytes:1));
  Alcotest.(check bool) "same device" true
    (raises_invalid (fun () ->
         Topology.transfer_time_us topo ~src:(Topology.Dev 1)
           ~dst:(Topology.Dev 1) ~bytes:1));
  Alcotest.(check bool) "ordinal out of range" true
    (raises_invalid (fun () ->
         Topology.transfer_time_us topo ~src:Topology.Host
           ~dst:(Topology.Dev 2) ~bytes:1));
  Alcotest.(check bool) "empty device list" true
    (raises_invalid (fun () -> Topology.of_devices []));
  Alcotest.(check bool) "zero devices" true
    (raises_invalid (fun () -> Topology.uniform ~devices:0 Device.gtx480))

let test_device_scaled () =
  let d = Device.gtx480 in
  let same =
    Device.scaled ~name:"clone" ~bandwidth_factor:1.0 ~pcie_factor:1.0 d
  in
  Alcotest.(check bool) "unit factors change only the name" true
    ({ same with Device.name = d.Device.name } = d);
  let f =
    Device.scaled ~name:"what-if" ~clock_factor:2.0 ~launch_factor:0.5
      ~bandwidth_factor:3.0 ~pcie_factor:4.0 d
  in
  Alcotest.(check (float 1e-9)) "clock" (d.Device.clock_ghz *. 2.0)
    f.Device.clock_ghz;
  Alcotest.(check (float 1e-9)) "dram bandwidth"
    (d.Device.dram_bandwidth_gbs *. 3.0)
    f.Device.dram_bandwidth_gbs;
  Alcotest.(check (float 1e-9)) "pcie h2d" (d.Device.pcie_h2d_gbs *. 4.0)
    f.Device.pcie_h2d_gbs;
  Alcotest.(check (float 1e-9)) "pcie d2h" (d.Device.pcie_d2h_gbs *. 4.0)
    f.Device.pcie_d2h_gbs;
  Alcotest.(check (float 1e-9)) "launch overhead"
    (d.Device.kernel_launch_us *. 0.5)
    f.Device.kernel_launch_us;
  Alcotest.(check (float 1e-9)) "memcpy setup"
    (d.Device.memcpy_overhead_us *. 0.5)
    f.Device.memcpy_overhead_us;
  (* Architectural counts are never scaled. *)
  Alcotest.(check int) "sm count" d.Device.sm_count f.Device.sm_count;
  Alcotest.(check int) "warp size" d.Device.warp_size f.Device.warp_size

(* [Device.pp] prints the full rate spec, so a profile quoted in a log
   or report can be read back against the profiles' definitions. *)
let test_device_pp_roundtrip () =
  List.iter
    (fun (d : Device.t) ->
      let s = Format.asprintf "%a" Device.pp d in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "%s prints %s" d.Device.name needle)
            true (contains ~needle s))
        [
          d.Device.name;
          Printf.sprintf "%d SMs x %d cores" d.Device.sm_count
            d.Device.cores_per_sm;
          Printf.sprintf "@ %.2f GHz" d.Device.clock_ghz;
          Printf.sprintf "%d MB" d.Device.device_mem_mb;
          Printf.sprintf "%.1f GB/s DRAM" d.Device.dram_bandwidth_gbs;
          Printf.sprintf "PCIe %.2f/%.2f GB/s" d.Device.pcie_h2d_gbs
            d.Device.pcie_d2h_gbs;
          Printf.sprintf "launch %.1f us" d.Device.kernel_launch_us;
        ])
    [ Device.gtx480; Device.tesla_c1060; Device.ampere ]

(* A fixed task sequence placed twice on fresh schedulers. *)
let place_sequence () =
  let topo = Topology.uniform ~devices:3 Device.gtx480 in
  let s = Sched.create topo in
  List.map
    (fun i ->
      let d =
        Sched.place s
          ~inputs:
            [ (Printf.sprintf "buf%d" (i mod 4), 4096 * (1 + (i mod 3))) ]
          ~outputs:[ Printf.sprintf "out%d" i ]
          ~name:(Printf.sprintf "t%d" i)
          ~us_of:(fun o -> 10.0 +. float_of_int ((i + o) mod 3))
      in
      (d.Sched.ordinal, d.Sched.predicted_us, d.Sched.transfer_us))
    (List.init 12 Fun.id)

(* Placement must not depend on the execution mode or pool width: the
   scheduler consults only the topology and its own accumulated state,
   so `--domains N` cannot change where work lands. *)
let test_sched_deterministic_across_modes () =
  Fun.protect
    ~finally:(fun () -> Context.set_default_mode Context.Sequential)
    (fun () ->
      Context.set_default_mode Context.Sequential;
      let a = place_sequence () in
      Context.set_default_mode (Context.Parallel 2);
      let b = place_sequence () in
      Context.set_default_mode (Context.Parallel 7);
      let c = place_sequence () in
      Alcotest.(check bool) "parallel 2 = sequential" true (a = b);
      Alcotest.(check bool) "parallel 7 = sequential" true (a = c))

let test_sched_ties_break_low () =
  let s = Sched.create (Topology.uniform ~devices:4 Device.gtx480) in
  let d = Sched.place s ~name:"first" ~us_of:(fun _ -> 5.0) in
  Alcotest.(check int) "all-idle tie goes to ordinal 0" 0 d.Sched.ordinal;
  Alcotest.(check (float 0.0)) "no inputs, no transfer" 0.0 d.Sched.transfer_us

let test_sched_residency_attracts () =
  let s = Sched.create (Topology.uniform ~devices:2 Device.gtx480) in
  let p = Sched.place s ~outputs:[ "mid" ] ~name:"producer" ~us_of:(fun _ -> 10.0) in
  (* The consumer's input is resident on the producer's device; staying
     there is free while the idle device charges a 64 MB migration, so
     residency must win even against the load imbalance. *)
  let c =
    Sched.place s
      ~inputs:[ ("mid", 64 * 1024 * 1024) ]
      ~name:"consumer"
      ~us_of:(fun _ -> 1.0)
  in
  Alcotest.(check int) "consumer follows its producer" p.Sched.ordinal
    c.Sched.ordinal;
  Alcotest.(check (float 0.0)) "resident input transfers nothing" 0.0
    c.Sched.transfer_us;
  Alcotest.(check int) "residency recorded" p.Sched.ordinal
    (Option.get (Sched.residency s "mid"))

let test_sched_spreads_independent_work () =
  let s = Sched.create (Topology.uniform ~devices:2 Device.gtx480) in
  let placed =
    List.map
      (fun i ->
        (Sched.place s ~name:(Printf.sprintf "w%d" i) ~us_of:(fun _ -> 10.0))
          .Sched.ordinal)
      (List.init 4 Fun.id)
  in
  Alcotest.(check (list int)) "independent equal tasks alternate"
    [ 0; 1; 0; 1 ] placed;
  Alcotest.(check (float 1e-9)) "load balances" (Sched.load s 0)
    (Sched.load s 1)

let test_sched_stream_pinning_and_migration () =
  let s = Sched.create (Topology.uniform ~devices:2 Device.gtx480) in
  (* A heavy working set makes migration never pay: the stream stays
     pinned no matter how lopsided its own load gets. *)
  let o0, m0 = Sched.stream_device s ~stream:"a" ~us:100.0 in
  Alcotest.(check bool) "first placement is not a migration" false m0;
  List.iter
    (fun _ ->
      let o, m =
        Sched.stream_device s ~working_set_bytes:(64 * 1024 * 1024)
          ~stream:"a" ~us:100.0
      in
      Alcotest.(check int) "stays pinned under a heavy working set" o0 o;
      Alcotest.(check bool) "no migration" false m)
    (List.init 5 Fun.id);
  Alcotest.(check int) "no migrations counted" 0 (Sched.migrations s);
  (* A free-to-move stream migrates only once its device is loaded
     beyond the hysteresis band, not on the first imbalance. *)
  let s = Sched.create (Topology.uniform ~devices:2 Device.gtx480) in
  let o0, _ = Sched.stream_device s ~stream:"a" ~us:100.0 in
  let o1, m1 = Sched.stream_device s ~stream:"a" ~us:100.0 in
  Alcotest.(check int) "inside the band: stays" o0 o1;
  Alcotest.(check bool) "inside the band: not a migration" false m1;
  let o2, m2 = Sched.stream_device s ~stream:"a" ~us:100.0 in
  Alcotest.(check bool) "past the band: migrates" true m2;
  Alcotest.(check bool) "lands on the other device" true (o2 <> o0);
  Alcotest.(check int) "migration counted" 1 (Sched.migrations s)

(* A migration into device 1 from device 0: the receiving device pays
   the topology's peer-link time, or the two-hop (d2h + h2d) time when
   the pair is not peer-linked, on its own timeline. *)
let test_cluster_transfer_accounting () =
  let d = Device.gtx480 in
  let peer = Topology.uniform ~devices:2 d in
  let hop = Topology.of_devices ~peer_linked:false [ d; d ] in
  let bytes = 4000 in
  let d2d ctx =
    List.filter
      (fun (e : Timeline.event) -> e.Timeline.kind = Timeline.Memcpy_d2d)
      (Timeline.events (Context.timeline ctx))
  in
  let migrate mode topology =
    let c0 = Context.create ~mode ~ordinal:0 ~topology () in
    let c1 = Context.create ~mode ~ordinal:1 ~topology () in
    Context.record_d2d c1 ~detail:"x" ~src:0 ~bytes;
    Alcotest.(check int) "no d2d on the sender" 0 (List.length (d2d c0));
    Alcotest.(check (float 0.0)) "the sender pays nothing" 0.0
      (Context.elapsed_us c0);
    c1
  in
  List.iter
    (fun (route, topology, expected_us) ->
      let copies = metric "gpu.p2p_copies"
      and recv_bytes = metric "gpu.dev1.p2p_bytes" in
      let c1 = migrate Context.Sequential topology in
      (match d2d c1 with
      | [ e ] ->
          Alcotest.(check (float 1e-9)) (route ^ " µs") expected_us
            e.Timeline.us;
          Alcotest.(check int) "event carries the payload bytes" bytes
            e.Timeline.bytes
      | evs ->
          Alcotest.failf "%s: %d d2d events on the receiver, expected 1"
            route (List.length evs));
      Alcotest.(check (float 1e-9)) "the receiver pays" expected_us
        (Context.elapsed_us c1);
      Alcotest.(check int) "p2p copy counted" (copies + 1)
        (metric "gpu.p2p_copies");
      Alcotest.(check int) "receiver's p2p bytes" (recv_bytes + bytes)
        (metric "gpu.dev1.p2p_bytes");
      Alcotest.(check (float 0.0)) "timing-only receiver µs"
        (Context.elapsed_us c1)
        (Context.elapsed_us (migrate Context.Timing_only topology)))
    [
      ( "peer",
        peer,
        Topology.transfer_time_us peer ~src:(Topology.Dev 0)
          ~dst:(Topology.Dev 1) ~bytes );
      ( "two-hop",
        hop,
        Perf_model.memcpy_time_us d ~bytes ~dir:`D2h
        +. Perf_model.memcpy_time_us d ~bytes ~dir:`H2d );
    ];
  let c1 = Context.create ~ordinal:1 ~topology:peer () in
  Alcotest.(check bool) "own ordinal rejected" true
    (raises_invalid (fun () ->
         Context.record_d2d c1 ~detail:"x" ~src:1 ~bytes));
  Alcotest.(check int) "and records nothing" 0 (List.length (d2d c1))

let test_per_device_metrics_isolated () =
  let topo = Topology.uniform ~devices:2 Device.gtx480 in
  let c1 = Gpu.Context.create ~ordinal:1 ~topology:topo () in
  let before0 = metric "gpu.dev0.launches"
  and before1 = metric "gpu.dev1.launches" in
  let n = 32 in
  let a = Context.alloc c1 ~name:"a" n in
  let b = Context.alloc c1 ~name:"b" n in
  let out = Context.alloc c1 ~name:"out" n in
  Context.h2d c1 a (Array.make n 1);
  Context.h2d c1 b (Array.make n 2);
  Context.launch c1 vadd ~grid:[| n |]
    ~args:
      [ ("a", Kir.Buffer_arg a); ("b", Kir.Buffer_arg b);
        ("out", Kir.Buffer_arg out) ];
  Alcotest.(check int) "dev1 counter advances" (before1 + 1)
    (metric "gpu.dev1.launches");
  Alcotest.(check int) "dev0 counter untouched" before0
    (metric "gpu.dev0.launches")

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_compile_matches_interpretation ]

let () =
  Alcotest.run "gpu"
    [
      ( "kir-validate",
        [
          Alcotest.test_case "ok kernel" `Quick test_validate_ok;
          Alcotest.test_case "unbound var" `Quick test_validate_unbound_var;
          Alcotest.test_case "store to input" `Quick
            test_validate_store_to_input;
          Alcotest.test_case "gid rank" `Quick test_validate_gid_rank;
          Alcotest.test_case "scalar as buffer" `Quick
            test_validate_scalar_as_buffer;
          Alcotest.test_case "dup params" `Quick test_validate_dup_params;
        ] );
      ( "execution",
        [
          Alcotest.test_case "vadd" `Quick test_vadd_executes;
          Alcotest.test_case "parallel domains" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "if/select" `Quick test_if_and_select;
          Alcotest.test_case "for-loop tiler" `Quick test_for_loop_kernel;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "unbound variable" `Quick test_unbound_variable;
          Alcotest.test_case "profiling leaves buffers (sequential)" `Quick
            (test_profile_leaves_buffers Context.Sequential);
          Alcotest.test_case "profiling leaves buffers (timing only)" `Quick
            (test_profile_leaves_buffers Context.Timing_only);
          Alcotest.test_case "storeless profile reads zeros" `Quick
            test_profile_storeless_reads_zeros;
          Alcotest.test_case "pooled H/V filters = sequential" `Quick
            test_pooled_filters_match_sequential;
        ] );
      ( "pool",
        [
          Alcotest.test_case "parallel_for covers range" `Quick
            test_pool_parallel_for;
          Alcotest.test_case "map_list order" `Quick test_pool_map_list_order;
          Alcotest.test_case "nested submission" `Quick test_pool_nested;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
        ] );
      ( "caching",
        [
          Alcotest.test_case "compile and cost hit counters" `Quick
            test_compile_cache_counters;
          Alcotest.test_case "data-dependent cost not cached" `Quick
            test_cost_cache_data_dependent_not_cached;
          Alcotest.test_case "reset clears stats" `Quick
            test_context_reset_clears_stats;
          Alcotest.test_case "compiles + hits = launches" `Quick
            test_metrics_launch_invariant;
        ] );
      ( "cost",
        [
          Alcotest.test_case "counts" `Quick test_cost_counts;
          Alcotest.test_case "row classification" `Quick
            test_access_classification_row;
          Alcotest.test_case "column classification" `Quick
            test_access_classification_column;
        ] );
      ( "perf-model",
        [
          Alcotest.test_case "monotone in bytes" `Quick
            test_perf_monotone_in_bytes;
          Alcotest.test_case "split penalty" `Quick test_perf_split_penalty;
          Alcotest.test_case "burst effect" `Quick test_perf_burst_effect;
          Alcotest.test_case "launch floor" `Quick test_perf_launch_floor;
          Alcotest.test_case "static cost agrees" `Quick
            test_static_cost_agrees;
          Alcotest.test_case "divergence factor" `Quick test_divergence_factor;
          Alcotest.test_case "memcpy calibration" `Quick
            test_memcpy_times_calibrated;
        ] );
      ( "memory",
        [
          Alcotest.test_case "accounting" `Quick
            (test_alloc_accounting Context.Sequential);
          Alcotest.test_case "accounting (timing only)" `Quick
            (test_alloc_accounting Context.Timing_only);
          Alcotest.test_case "peak and arena" `Quick
            (test_peak_and_arena Context.Sequential);
          Alcotest.test_case "peak and arena (timing only)" `Quick
            (test_peak_and_arena Context.Timing_only);
          Alcotest.test_case "reset drains arena" `Quick
            test_reset_drains_arena;
          Alcotest.test_case "out of memory" `Quick
            (test_out_of_memory Context.Sequential);
          Alcotest.test_case "out of memory (timing only)" `Quick
            (test_out_of_memory Context.Timing_only);
        ] );
      ( "timeline",
        [
          Alcotest.test_case "events" `Quick test_timeline_events;
          Alcotest.test_case "replay" `Quick test_timeline_replay;
          Alcotest.test_case "start offsets" `Quick
            test_timeline_start_offsets;
          Alcotest.test_case "trace export device tracks" `Quick
            test_trace_export_device_tracks;
          Alcotest.test_case "trace export mode-independent" `Quick
            test_trace_export_mode_independent;
          Alcotest.test_case "profiler grouping" `Quick test_profiler_grouping;
        ] );
      ( "overlap",
        [
          Alcotest.test_case "makespan" `Quick test_overlap_makespan;
          Alcotest.test_case "zero-duration stages" `Quick
            test_overlap_zero_stages;
          Alcotest.test_case "never worse" `Quick test_overlap_never_worse;
          Alcotest.test_case "from timeline" `Quick test_overlap_of_timeline;
          Alcotest.test_case "invalid" `Quick test_overlap_invalid;
        ] );
      ( "emit",
        [
          Alcotest.test_case "div/mod C semantics" `Quick
            test_divmod_c_semantics;
          Alcotest.test_case "div/mod emitters agree" `Quick
            test_divmod_emitters_agree;
          Alcotest.test_case "cuda kernel" `Quick test_cuda_emit;
          Alcotest.test_case "opencl kernel" `Quick test_opencl_emit;
          Alcotest.test_case "metal kernel" `Quick test_metal_emit;
          Alcotest.test_case "cuda program" `Quick test_cuda_program_shape;
          Alcotest.test_case "opencl host" `Quick test_opencl_host_shape;
          Alcotest.test_case "makefile" `Quick test_makefile;
        ] );
      ( "facades",
        [
          Alcotest.test_case "opencl roundtrip" `Quick
            test_opencl_facade_roundtrip;
          Alcotest.test_case "cuda roundtrip" `Quick test_cuda_facade_roundtrip;
        ] );
      ( "topology",
        [
          Alcotest.test_case "host links match perf model" `Quick
            test_topology_matches_perf_model;
          Alcotest.test_case "peer vs two-hop" `Quick
            test_topology_peer_vs_two_hop;
          Alcotest.test_case "invalid endpoints" `Quick test_topology_invalid;
        ] );
      ( "device",
        [
          Alcotest.test_case "scaled factors" `Quick test_device_scaled;
          Alcotest.test_case "pp round-trip" `Quick test_device_pp_roundtrip;
        ] );
      ( "sched",
        [
          Alcotest.test_case "deterministic across exec modes" `Quick
            test_sched_deterministic_across_modes;
          Alcotest.test_case "ties break to lowest ordinal" `Quick
            test_sched_ties_break_low;
          Alcotest.test_case "residency attracts consumers" `Quick
            test_sched_residency_attracts;
          Alcotest.test_case "independent work spreads" `Quick
            test_sched_spreads_independent_work;
          Alcotest.test_case "stream pinning and migration" `Quick
            test_sched_stream_pinning_and_migration;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "transfer accounting" `Quick
            test_cluster_transfer_accounting;
          Alcotest.test_case "per-device metrics isolated" `Quick
            test_per_device_metrics_isolated;
        ] );
      ("properties", props);
    ]
