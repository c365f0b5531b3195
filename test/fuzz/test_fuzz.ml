(* Differential fuzzing of the SAC pipeline.

   Random single-input pipelines of 1-D with-loops (dense producers,
   stepped partitions, width>1 lattices, modarray bases, wrapped affine
   reads) are run through four routes that must agree bit-exactly:

     1. the reference interpreter on the source program;
     2. the interpreter on the optimised (inlined/folded/DCE'd) program;
     3. the compiled plan executed on the simulated device;
     4. the same plan compiled without Figure 8 generator splitting;

   and the printed program must re-parse to something equivalent.  The
   static-cost and lattice groups compare closed-form analyses
   (Kir.static_cost; Affine and Tiler covers) against enumeration. *)

(* ------------------------------------------------------------------ *)
(* Program generator                                                   *)
(* ------------------------------------------------------------------ *)

type stage =
  | Dense of (int * int * int)
      (** cell = a[(i*c1 + c2) mod n] * m + i, one full generator *)
  | Partition of int * (int * int) list
      (** step k; per offset: (c1, c2) for the read of that class *)
  | Widened of (int * int)
      (** two width-2 generators with step 4 covering offsets 0-3 *)
  | Mod_patch of (int * int * int)
      (** modarray over the previous array, patching every [step]-th
          element from a wrapped read *)

type fuzz_program = { n : int; stages : stage list }

let gen_stage n =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun c1 c2 m -> Dense (c1, c2, m))
            (int_range 1 3) (int_range 0 (n - 1)) (int_range 1 4) );
        ( 2,
          int_range 2 3 >>= fun k ->
          list_repeat k (pair (int_range 1 3) (int_range 0 (n - 1)))
          >|= fun reads -> Partition (k, reads) );
        (1, pair (int_range 1 2) (int_range 0 (n - 1)) >|= fun p -> Widened p);
        ( 2,
          map3
            (fun s c1 c2 -> Mod_patch (s, c1, c2))
            (int_range 2 4) (int_range 1 3) (int_range 0 (n - 1)) );
      ])

let gen_program =
  QCheck.Gen.(
    oneofl [ 12; 24 ] >>= fun n ->
    int_range 1 4 >>= fun depth ->
    list_repeat depth (gen_stage n) >|= fun stages -> { n; stages })

let show_stage = function
  | Dense (c1, c2, m) -> Printf.sprintf "Dense(%d,%d,%d)" c1 c2 m
  | Partition (k, reads) ->
      Printf.sprintf "Partition(%d,[%s])" k
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) reads))
  | Widened (c1, c2) -> Printf.sprintf "Widened(%d,%d)" c1 c2
  | Mod_patch (s, c1, c2) -> Printf.sprintf "ModPatch(%d,%d,%d)" s c1 c2

let show_program p =
  Printf.sprintf "n=%d [%s]" p.n
    (String.concat "; " (List.map show_stage p.stages))

let arb_program = QCheck.make ~print:show_program gen_program

(* ------------------------------------------------------------------ *)
(* AST construction                                                    *)
(* ------------------------------------------------------------------ *)

let num n = Sac.Ast.Num n

let vec l = Sac.Ast.Vec (List.map num l)

let read src ~c1 ~c2 ~n iv_var =
  (* src[[(iv*c1 + c2) mod n]] *)
  Sac.Ast.Select
    ( Sac.Ast.Var src,
      Sac.Ast.Vec
        [
          Sac.Ast.Bin
            ( Sac.Ast.Mod,
              Sac.Ast.Bin
                ( Sac.Ast.Add,
                  Sac.Ast.Bin (Sac.Ast.Mul, Sac.Ast.Var iv_var, num c1),
                  num c2 ),
              num n );
        ] )

let gen_of ~lb ~ub ?step ?width ~cell () =
  {
    Sac.Ast.lb = Sac.Ast.Bexpr (vec [ lb ]);
    lb_incl = true;
    pat = Sac.Ast.Pvec [ "i" ];
    ub = Sac.Ast.Bexpr (vec [ ub ]);
    ub_incl = false;
    step = Option.map (fun s -> vec [ s ]) step;
    width = Option.map (fun w -> vec [ w ]) width;
    locals = [];
    cell;
  }

let with_of ~gens ~op = Sac.Ast.With { Sac.Ast.gens; op }

let stage_expr n src = function
  | Dense (c1, c2, m) ->
      with_of
        ~gens:
          [
            gen_of ~lb:0 ~ub:n
              ~cell:
                (Sac.Ast.Bin
                   ( Sac.Ast.Add,
                     Sac.Ast.Bin
                       (Sac.Ast.Mul, read src ~c1 ~c2 ~n "i", num m),
                     Sac.Ast.Var "i" ))
              ();
          ]
        ~op:(Sac.Ast.Genarray (vec [ n ], None))
  | Partition (k, reads) ->
      with_of
        ~gens:
          (List.mapi
             (fun off (c1, c2) ->
               gen_of ~lb:off ~ub:n ~step:k
                 ~cell:
                   (Sac.Ast.Bin (Sac.Ast.Add, read src ~c1 ~c2 ~n "i", num off))
                 ())
             reads)
        ~op:(Sac.Ast.Genarray (vec [ n ], Some (num 7)))
  | Widened (c1, c2) ->
      with_of
        ~gens:
          [
            gen_of ~lb:0 ~ub:n ~step:4 ~width:2
              ~cell:(read src ~c1 ~c2 ~n "i") ();
            gen_of ~lb:2 ~ub:n ~step:4 ~width:2
              ~cell:
                (Sac.Ast.Bin (Sac.Ast.Add, read src ~c1 ~c2 ~n "i", num 1))
              ();
          ]
        ~op:(Sac.Ast.Genarray (vec [ n ], None))
  | Mod_patch (s, c1, c2) ->
      with_of
        ~gens:
          [ gen_of ~lb:0 ~ub:n ~step:s ~cell:(read src ~c1 ~c2 ~n "i") () ]
        ~op:(Sac.Ast.Modarray (Sac.Ast.Var src))

let build_program (p : fuzz_program) =
  let stmts =
    List.concat
      (List.mapi
         (fun i stage ->
           let src = if i = 0 then "a" else Printf.sprintf "x%d" i in
           let dst = Printf.sprintf "x%d" (i + 1) in
           [ Sac.Ast.Assign (dst, stage_expr p.n src stage) ])
         p.stages)
  in
  let last = Printf.sprintf "x%d" (List.length p.stages) in
  [
    {
      Sac.Ast.fname = "main";
      params = [ (Sac.Ast.Tarray (Sac.Ast.Fixed [ p.n ]), "a") ];
      ret = Sac.Ast.Tarray (Sac.Ast.Fixed [ p.n ]);
      body = stmts @ [ Sac.Ast.Return (Sac.Ast.Var last) ];
    };
  ]

let input_of p =
  Sac.Value.of_vector (Array.init p.n (fun i -> ((i * 37) + 11) mod 97))

(* ------------------------------------------------------------------ *)
(* Differential checks                                                 *)
(* ------------------------------------------------------------------ *)

let interp prog v = Sac.Interp.run prog ~entry:"main" ~args:[ v ]

let exec_plan ?split_generators prog v =
  let plan = Sac_cuda.Compile.plan ?split_generators (List.hd prog) in
  let rt = Cuda.Runtime.init () in
  let outcome =
    Sac_cuda.Exec.run rt plan ~args:[ ("a", Sac.Value.tensor_exn v) ]
  in
  Sac.Value.Varr outcome.Sac_cuda.Exec.result

let prop_optimizer_preserves =
  QCheck.Test.make ~name:"interp(optimize p) = interp(p)" ~count:120
    arb_program (fun p ->
      let prog = build_program p in
      let v = input_of p in
      let reference = interp prog v in
      let fd, _ = Sac.Pipeline.optimize prog ~entry:"main" in
      Sac.Value.equal reference (interp [ fd ] v))

let prop_backend_matches_interp =
  QCheck.Test.make ~name:"exec(compile p) = interp(p)" ~count:80 arb_program
    (fun p ->
      let prog = build_program p in
      let v = input_of p in
      let fd, _ = Sac.Pipeline.optimize prog ~entry:"main" in
      Sac.Value.equal (interp prog v) (exec_plan [ fd ] v))

let prop_split_invariant =
  QCheck.Test.make ~name:"split and unsplit plans agree" ~count:60 arb_program
    (fun p ->
      let prog = build_program p in
      let v = input_of p in
      let fd, _ = Sac.Pipeline.optimize prog ~entry:"main" in
      Sac.Value.equal
        (exec_plan ~split_generators:true [ fd ] v)
        (exec_plan ~split_generators:false [ fd ] v))

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"interp(parse(print p)) = interp(p)" ~count:80
    arb_program (fun p ->
      let prog = build_program p in
      let v = input_of p in
      let printed = Sac.Ast.program_to_string prog in
      let reparsed = Sac.Parser.program printed in
      Sac.Value.equal (interp prog v) (interp reparsed v))

let prop_emitted_cuda_wellformed =
  QCheck.Test.make ~name:"emitted CUDA contains every kernel" ~count:40
    arb_program (fun p ->
      let prog = build_program p in
      let fd, _ = Sac.Pipeline.optimize prog ~entry:"main" in
      let plan = Sac_cuda.Compile.plan fd in
      let src = Sac_cuda.Emit_cu.source ~name:"fuzz" plan in
      let count_occurrences needle =
        let nl = String.length needle in
        let rec go i acc =
          if i + nl > String.length src then acc
          else if String.sub src i nl = needle then go (i + 1) (acc + 1)
          else go (i + 1) acc
        in
        go 0 0
      in
      count_occurrences "__global__ void" = Sac_cuda.Plan.kernel_count plan)


(* ------------------------------------------------------------------ *)
(* Static cost differential                                            *)
(* ------------------------------------------------------------------ *)

(* Random affine 2-D kernels (tap stencils with wrapped reads, an
   optional lane-parity branch and an optional constant-bound loop):
   {!Gpu.Kir.static_cost} must reproduce the execution-counted
   {!Gpu.Kir.profile_threads} profile exactly -- reads, writes and ops
   per thread, access class and burst length -- and profiling over
   non-zero input must leave every argument buffer unchanged. *)

type fuzz_kernel = {
  fr : int;
  fc : int;
  taps : (int * int) list;
  guard : bool;
  loop : int option;
}

let gen_kernel =
  QCheck.Gen.(
    pair (int_range 3 9) (oneofl [ 8; 16; 33; 64 ]) >>= fun (fr, fc) ->
    int_range 1 4 >>= fun ntaps ->
    list_repeat ntaps (pair (int_range 0 3) (int_range 0 5)) >>= fun taps ->
    bool >>= fun guard ->
    option (int_range 1 4) >|= fun loop -> { fr; fc; taps; guard; loop })

let show_kernel k =
  Printf.sprintf "grid=[%d,%d] taps=[%s] guard=%b loop=%s" k.fr k.fc
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) k.taps))
    k.guard
    (match k.loop with None -> "-" | Some n -> string_of_int n)

let arb_kernel = QCheck.make ~print:show_kernel gen_kernel

let kir_of (f : fuzz_kernel) =
  let open Gpu.Kir in
  let wrap e m = Bin (Mod, e, Int m) in
  let tap (dr, dc) =
    Read
      ( "in",
        Bin
          ( Add,
            Bin (Mul, wrap (Bin (Add, Gid 0, Int dr)) f.fr, Int f.fc),
            wrap (Bin (Add, Gid 1, Int dc)) f.fc ) )
  in
  let value =
    List.fold_left
      (fun acc t -> Bin (Add, acc, tap t))
      (tap (List.hd f.taps))
      (List.tl f.taps)
  in
  let out_idx = Bin (Add, Bin (Mul, Gid 0, Int f.fc), Gid 1) in
  let store = Store ("out", out_idx, value) in
  let body =
    if f.guard then
      [
        If
          ( Bin (Eq, Bin (Mod, Gid 1, Int 2), Int 0),
            [ store ],
            [ Store ("out", out_idx, Bin (Add, value, Int 1)) ] );
      ]
    else [ store ]
  in
  let body =
    match f.loop with
    | None -> body
    | Some n ->
        body
        @ [
            For
              {
                var = "k";
                lo = Int 0;
                hi = Int n;
                body =
                  [
                    Store
                      ( "out",
                        out_idx,
                        Bin
                          ( Add,
                            Read
                              ( "in",
                                Bin
                                  ( Add,
                                    Bin (Mul, Gid 0, Int f.fc),
                                    wrap (Bin (Add, Gid 1, Var "k")) f.fc ) ),
                            Int 1 ) );
                  ];
              };
          ]
  in
  {
    kname = "fuzz_static";
    params =
      [
        { pname = "in"; kind = In_buffer }; { pname = "out"; kind = Out_buffer };
      ];
    grid_rank = 2;
    body;
  }

let prop_static_cost_matches_profile =
  QCheck.Test.make ~name:"static_cost = profile_threads" ~count:200 arb_kernel
    (fun f ->
      let k = kir_of f in
      let grid = [| f.fr; f.fc |] in
      let len = f.fr * f.fc in
      let input = Array.init len (fun i -> (i * 37 mod 101) - 50) in
      let args =
        [
          ( "in",
            Gpu.Kir.Buffer_arg
              { Gpu.Buffer.id = 0; name = "in"; len; data = Array.copy input } );
          ( "out",
            Gpu.Kir.Buffer_arg
              { Gpu.Buffer.id = 1; name = "out"; len; data = Array.make len 0 } );
        ]
      in
      let dynamic = Gpu.Kir.profile_threads k ~args ~grid in
      List.iter
        (fun (name, arg) ->
          match arg with
          | Gpu.Kir.Buffer_arg b ->
              let before = if name = "in" then input else Array.make len 0 in
              if b.Gpu.Buffer.data <> before then
                QCheck.Test.fail_reportf "profiling changed buffer %s" name
          | Gpu.Kir.Scalar_arg _ -> ())
        args;
      match Gpu.Kir.static_cost k ~grid with
      | Error m -> QCheck.Test.fail_reportf "static derivation failed: %s" m
      | Ok st ->
          let check what a b =
            if not (Float.equal a b) then
              QCheck.Test.fail_reportf "%s: static %g <> executed %g" what a b
          in
          check "reads" st.Gpu.Kir.reads_per_thread
            dynamic.Gpu.Kir.reads_per_thread;
          check "writes" st.Gpu.Kir.writes_per_thread
            dynamic.Gpu.Kir.writes_per_thread;
          check "ops" st.Gpu.Kir.ops_per_thread dynamic.Gpu.Kir.ops_per_thread;
          check "burst" st.Gpu.Kir.read_burst dynamic.Gpu.Kir.read_burst;
          if st.Gpu.Kir.access <> dynamic.Gpu.Kir.access then
            QCheck.Test.fail_reportf "access class differs";
          st.Gpu.Kir.summary <> None)

(* ------------------------------------------------------------------ *)
(* Lattice search vs enumeration                                       *)
(* ------------------------------------------------------------------ *)

(* Strided store sets and tilers are decided by the bounded lattice
   search of Ndarray.Linalg; on small inputs both are checked against
   counting every point. *)

let values (s : Analysis.Affine.sset) =
  List.fold_left
    (fun acc (c, n) -> List.concat_map (fun v -> List.init n (fun k -> v + (c * k))) acc)
    [ s.Analysis.Affine.base ] s.Analysis.Affine.strides

let gen_sset =
  QCheck.Gen.(
    int_range (-12) 12 >>= fun base ->
    list_size (int_range 0 3) (pair (int_range (-9) 9) (int_range 2 5)) >>= fun strides ->
    bool >|= fun exact ->
    let lo, hi =
      List.fold_left
        (fun (lo, hi) (c, n) ->
          let a = c * (n - 1) in
          (lo + min 0 a, hi + max 0 a))
        (base, base) strides
    in
    {
      Analysis.Affine.base;
      strides;
      events = List.fold_left (fun acc (_, n) -> acc * n) 1 strides;
      exact;
      lo;
      hi;
    })

let arb_sset_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Format.asprintf "%a | %a" Analysis.Affine.pp_sset a Analysis.Affine.pp_sset b)
    QCheck.Gen.(pair gen_sset gen_sset)

(* the verdict enumeration implies: Proved when no clash, otherwise
   Refuted for exact sets and Unknown for inexact ones *)
let expect ~clash ~exact (v : Analysis.Affine.verdict) =
  match (v, clash) with
  | Analysis.Affine.Proved, false -> true
  | Analysis.Affine.Refuted _, true -> exact
  | Analysis.Affine.Unknown, true -> not exact
  | _ -> false

let prop_affine_matches_enumeration =
  QCheck.Test.make ~name:"Affine verdicts = enumeration" ~count:5000
    arb_sset_pair (fun (a, b) ->
      let va = values a and vb = values b in
      let dup = List.length (List.sort_uniq compare va) < List.length va in
      let clash = List.exists (fun v -> List.mem v vb) va in
      let exact = a.Analysis.Affine.exact && b.Analysis.Affine.exact in
      expect ~clash:dup ~exact:a.Analysis.Affine.exact
        (Analysis.Affine.self_injective a)
      &&
      let v = Analysis.Affine.disjoint a b in
      expect ~clash ~exact v
      &&
      match v with
      | Analysis.Affine.Refuted why ->
          Scanf.sscanf why "both write address %d" (fun addr ->
              List.mem addr va && List.mem addr vb)
      | _ -> true)

(* Tilers of rank 0-2 with wrapping origins; separable ones give every
   paving/fitting column one nonzero row, the others are unconstrained. *)
let gen_spec =
  QCheck.Gen.(
    int_range 0 2 >>= fun ar ->
    (if ar = 0 then return (0, 0) else pair (int_range 0 2) (int_range 0 2))
    >>= fun (pr, rr) ->
    let shape r lo = list_repeat r (int_range lo 4) >|= Array.of_list in
    triple (shape ar 1) (shape pr 0) (shape rr 0) >>= fun (array_shape, pattern_shape, repetition_shape) ->
    bool >>= fun separable ->
    let column =
      if separable then
        pair (int_range 0 (max 0 (ar - 1))) (int_range (-3) 3) >|= fun (axis, c) ->
        Array.init ar (fun j -> if j = axis then c else 0)
      else list_repeat ar (int_range (-3) 3) >|= Array.of_list
    in
    let matrix cols = list_repeat cols column >|= fun cs -> Array.init ar (fun j -> Array.of_list (List.map (fun c -> c.(j)) cs)) in
    triple (list_repeat ar (int_range (-5) 5)) (matrix pr) (matrix rr) >|= fun (origin, fitting, paving) ->
    Tiler.spec ~origin:(Array.of_list origin) ~fitting ~paving ~array_shape ~pattern_shape
      ~repetition_shape)

let arb_spec = QCheck.make ~print:(Format.asprintf "%a" Tiler.pp_spec) gen_spec

let prop_tiler_matches_coverage =
  QCheck.Test.make ~name:"Tiler covers = coverage" ~count:5000 arb_spec (fun s ->
      let counts = Tiler.coverage s in
      Tiler.is_exact_cover s = Ndarray.Tensor.fold (fun ok c -> ok && c = 1) true counts
      && Tiler.covers_array s = Ndarray.Tensor.fold (fun ok c -> ok && c >= 1) true counts)

let () =
  Alcotest.run "fuzz"
    [
      ( "pipeline",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_optimizer_preserves;
            prop_backend_matches_interp;
            prop_split_invariant;
            prop_print_parse_roundtrip;
            prop_emitted_cuda_wellformed;
          ] );
      ( "static-cost",
        List.map QCheck_alcotest.to_alcotest
          [ prop_static_cost_matches_profile ] );
      ( "lattice",
        List.map QCheck_alcotest.to_alcotest
          [ prop_affine_matches_enumeration; prop_tiler_matches_coverage ] );
    ]
