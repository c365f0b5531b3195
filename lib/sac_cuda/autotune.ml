open Ndarray

(* Profiling labels are caller-specific (Serve names plan items after
   its filters); strip them before hashing so equal programs share one
   cache entry and one search fingerprint. *)
let strip_labels (p : Plan.t) =
  {
    p with
    Plan.items =
      List.map
        (function
          | Plan.Device_withloop d -> Plan.Device_withloop { d with label = "" }
          | it -> it)
        p.Plan.items;
  }

let modelled_us ?device (p : Plan.t) =
  let ctx = Gpu.Context.create ~mode:Gpu.Context.Timing_only ?device () in
  let args =
    List.map
      (fun (n, shape) ->
        let data = Optimizer.Tune.synthetic (Shape.size shape) in
        (n, Tensor.of_array shape data))
      p.Plan.params
  in
  let outcome = Exec.run ~host_mode:`Estimate ctx p ~args in
  Gpu.Context.elapsed_us ctx +. outcome.Exec.host_us

let item_threads kernels =
  List.fold_left
    (fun acc (_, grid) -> max acc (Array.fold_left ( * ) 1 grid))
    0 kernels

(* Rewrite the kernels of one Device_withloop item through [f] (a
   grid-level rule); [None] when the rule changed nothing or the
   rewritten item fails the analysis gates. *)
let rewrite_item (p : Plan.t) target f =
  let changed = ref false in
  let rewrite = function
    | Plan.Device_withloop d when d.target = target ->
        let kernels =
          List.map
            (fun kg ->
              match f kg with
              | Some kg' ->
                  changed := true;
                  kg'
              | None -> kg)
            d.kernels
        in
        if
          !changed
          && Verify.item_findings ~swith:d.swith ~kernels
               ~full_cover:d.full_cover
             = []
        then Some (Plan.Device_withloop { d with kernels })
        else None
    | _ -> None
  in
  let items =
    List.map
      (fun it -> match rewrite it with Some it' -> it' | None -> it)
      p.Plan.items
  in
  if !changed && List.exists2 (fun a b -> not (a == b)) p.Plan.items items
  then Some { p with Plan.items }
  else None

let view ~device =
  {
    Optimizer.Tune.pipeline = "sac";
    device = device.Gpu.Device.name;
    shape =
      (fun p ->
        match p.Plan.params with
        | (_, shape) :: _ when Array.length shape >= 2 -> (shape.(0), shape.(1))
        | _ -> (1, Shape.size p.Plan.result_shape));
    cost = modelled_us ~device;
    fingerprint =
      (fun p -> Optimizer.Cache.structural_digest (strip_labels p));
    (* Rule names carry gensym targets ("interchange:output$51"), so the
       cache holds them in the base plan's canonical numbering and a
       later compile matches its own moves through its own
       renumbering. *)
    canonical = (fun p -> Optimizer.Cache.canonical (strip_labels p));
    fuse_candidates = Fuse_plan.candidates;
    fuse_all = Fuse_plan.optimize;
    units =
      (fun p ->
        List.filter_map
          (function
            | Plan.Device_withloop { target; kernels; _ } ->
                (* Coarsening trades parallelism for per-thread work; it
                   can only pay while the grid undersaturates the
                   device, so don't even offer it on big grids. *)
                let saturated =
                  item_threads kernels
                  >= 4 * Gpu.Device.saturation_threads device
                in
                Some (target, if saturated then [] else [ 2; 4 ])
            | _ -> None)
          p.Plan.items);
    rewrite = rewrite_item;
  }

let tune ?(device = Gpu.Device.gtx480) p = Optimizer.Tune.tune (view ~device) p
