exception Compile_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Compile_error m)) fmt

let full_cover (sw : Sac.Scalarize.swith) =
  let total =
    List.fold_left
      (fun acc (g : Sac.Scalarize.sgen) ->
        acc + Sac.Genspace.count g.Sac.Scalarize.space)
      0 sw.Sac.Scalarize.sgens
  in
  total = Ndarray.Shape.size sw.Sac.Scalarize.frame

let constant_genarray e =
  match e with
  | Sac.Ast.Call ("genarray", args) -> (
      let shp, fill =
        match args with
        | [ shp ] -> (shp, Some 0)
        | [ shp; Sac.Ast.Num n ] -> (shp, Some n)
        | [ shp; Sac.Ast.Neg (Sac.Ast.Num n) ] -> (shp, Some (-n))
        | _ -> (e, None)
      in
      match (Sac.Simplify.eval_closed shp, fill) with
      | Some v, Some fill -> (
          try Some (Sac.Value.vector_exn v, fill)
          with Sac.Value.Value_error _ -> None)
      | _ -> None)
  | _ -> None

let plan ?(label_of = Kernelize.sanitize) ?(split_generators = true)
    ?(opt = Optimizer.Mode.default ()) ?device (fd : Sac.Ast.fundef) =
  let params =
    List.filter_map
      (fun (t, name) ->
        match Sac.Shapes.of_typ t with
        | Some shape when Array.length shape > 0 -> Some (name, shape)
        | _ -> None)
      fd.Sac.Ast.params
  in
  let senv =
    ref
      (List.filter_map
         (fun (t, name) ->
           Option.map (fun s -> (name, s)) (Sac.Shapes.of_typ t))
         fd.Sac.Ast.params)
  in
  let items = ref [] in
  let result = ref None in
  let push item = items := item :: !items in
  let host_stmt stmt =
    (* Merge consecutive host statements into one block. *)
    let reads = Sac.Dce.free_vars_of_stmt stmt in
    let writes = Sac.Rename.bound_names [ stmt ] in
    match !items with
    | Plan.Host_block hb :: rest ->
        items :=
          Plan.Host_block
            {
              stmts = hb.stmts @ [ stmt ];
              reads = List.sort_uniq compare (hb.reads @ reads);
              writes = List.sort_uniq compare (hb.writes @ writes);
            }
          :: rest
    | _ -> push (Plan.Host_block { stmts = [ stmt ]; reads; writes })
  in
  List.iter
    (fun stmt ->
      (match stmt with
      | Sac.Ast.Return (Sac.Ast.Var v) -> result := Some v
      | Sac.Ast.Return _ -> fail "main must return a variable"
      | Sac.Ast.Assign (x, Sac.Ast.With w) -> (
          try
            let sw = Sac.Scalarize.with_loop !senv w in
            (* A kernel writes every member of its generator into the
               result buffer, so a generator must lie inside the frame. *)
            List.iter
              (fun ({ space = g; _ } : Sac.Scalarize.sgen) ->
                if
                  Sac.Genspace.count g > 0
                  && (Array.exists (fun l -> l < 0) g.lb
                     || Array.exists2 ( < ) sw.Sac.Scalarize.frame g.ub)
                then
                  fail "with-loop %s: generator %a <= iv < %a lies outside \
                        its result shape %s"
                    x Ndarray.Index.pp g.lb Ndarray.Index.pp g.ub
                    (Ndarray.Shape.to_string sw.Sac.Scalarize.frame))
              sw.Sac.Scalarize.sgens;
            let sw =
              if split_generators then Sac.Split_gens.normalize sw else sw
            in
            let covered = full_cover sw in
            let kernel_arrays =
              (* The base array is not read by the kernels when the
                 generators cover everything. *)
              match (covered, sw.Sac.Scalarize.base) with
              | true, Sac.Scalarize.Base_array b ->
                  List.filter (fun (a, _) -> a <> b) sw.Sac.Scalarize.arrays
              | _ -> sw.Sac.Scalarize.arrays
            in
            let out_shape =
              Ndarray.Shape.concat sw.Sac.Scalarize.frame
                sw.Sac.Scalarize.cell_shape
            in
            let kernels =
              List.mapi
                (fun i g ->
                  Kernelize.kernel_of_sgen
                    ~name:(Printf.sprintf "%s_gen%d" (Kernelize.sanitize x) i)
                    ~out_shape ~cell_shape:sw.Sac.Scalarize.cell_shape g
                    ~arrays:kernel_arrays)
                sw.Sac.Scalarize.sgens
            in
            push
              (Plan.Device_withloop
                 {
                   target = x;
                   swith = { sw with Sac.Scalarize.arrays = kernel_arrays };
                   kernels;
                   full_cover = covered;
                   label = label_of x;
                 })
          with Sac.Scalarize.Scal_fail m | Kernelize.Unsupported m ->
            Logs.debug (fun k ->
                k "sac_cuda: with-loop %s stays on the host: %s" x m);
            host_stmt stmt)
      | Sac.Ast.Assign (x, Sac.Ast.Var y) ->
          push (Plan.Copy { target = x; source = y })
      | Sac.Ast.Assign (x, e) -> (
          match constant_genarray e with
          | Some (shape, fill) ->
              push (Plan.Const_array { target = x; shape; fill })
          | None -> host_stmt stmt)
      | (Sac.Ast.Assign_idx _ | Sac.Ast.For _) as s -> host_stmt s);
      senv := Sac.Shapes.after_stmt !senv stmt)
    fd.Sac.Ast.body;
  let result =
    match !result with
    | Some r -> r
    | None -> fail "main has no return statement"
  in
  let result_shape =
    match List.assoc_opt result !senv with
    | Some s -> s
    | None -> fail "result %s has no statically known shape" result
  in
  (* Dead-item elimination: a Const_array or Copy whose target no
     later item consumes (a fully-covered with-loop never reads its
     base) would only cost an allocation at execution time. *)
  let reads_of = function
    | Plan.Const_array _ -> []
    | Plan.Copy { source; _ } -> [ source ]
    | Plan.Host_block { reads; _ } -> reads
    | Plan.Device_withloop { swith; full_cover; _ } -> (
        let arrays = List.map fst swith.Sac.Scalarize.arrays in
        match (full_cover, swith.Sac.Scalarize.base) with
        | false, Sac.Scalarize.Base_array b -> b :: arrays
        | _ -> arrays)
  in
  let rec sweep items =
    let used = result :: List.concat_map reads_of items in
    let items' =
      List.filter
        (fun item ->
          match item with
          | Plan.Const_array { target; _ } | Plan.Copy { target; _ } ->
              List.mem target used
          | Plan.Device_withloop _ | Plan.Host_block _ -> true)
        items
    in
    if List.length items' = List.length items then items else sweep items'
  in
  let p =
    { Plan.params; items = sweep (List.rev !items); result; result_shape }
  in
  (* Plan optimisation (--opt): provably safe rewrites only, each
     re-verified by the same analyses as the gate below.  [Fuse] is the
     fixed fusion-to-fixpoint pass; [Auto] searches fuse / fission /
     interchange / tile sequences under the device cost model, memoised
     per (pipeline, shape, device) in the tuned-plan cache. *)
  let p =
    match opt with
    | Optimizer.Mode.Off -> p
    | Optimizer.Mode.Fuse ->
        let p, fstats =
          Obs.Tracer.with_span ~cat:"sac" "sac.fuse_plan" (fun () ->
              Fuse_plan.optimize p)
        in
        Gpu.Fuse.record fstats;
        p
    | Optimizer.Mode.Auto ->
        let p, fstats, _rules = Autotune.tune ?device p in
        if fstats.Gpu.Fuse.kernels_eliminated > 0 then Gpu.Fuse.record fstats;
        p
  in
  (* Verification gate: in lint mode findings are recorded as metrics
     and log entries; in strict mode error findings abort. *)
  (match Verify.gate p with Ok () -> () | Error m -> fail "%s" m);
  (* Performance-lint gate: same three modes, but over the static
     memory-behaviour findings (coalescing, divergence, overlap). *)
  (match
     Obs.Tracer.with_span ~cat:"sac" "sac.perf_lint" (fun () ->
         Verify.perf_gate p)
   with
  | Ok () -> ()
  | Error m -> fail "%s" m);
  p

let plan_of_source ?label_of ?split_generators ?opt ?device src ~entry =
  let fd, report = Sac.Pipeline.optimize_source src ~entry in
  (plan ?label_of ?split_generators ?opt ?device fd, report)
