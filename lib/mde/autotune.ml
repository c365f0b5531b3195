open Ndarray

(* Sources are regenerated from the kernel tasks at render time, so the
   fingerprint covers only the structure the rewrites touch — otherwise
   a rendered and an unrendered copy of the same program would count as
   two distinct states.  The digest marshals with sharing: a
   sharing-blind one ({!Optimizer.Cache.structural_digest}) merges
   states this search has always kept apart, which changes its
   explored-state count (pinned in test/optimizer). *)
let fingerprint (g : Codegen.generated) =
  Optimizer.Cache.digest
    (g.Codegen.kernel_tasks, g.Codegen.levels, g.Codegen.connections)

(* ------------------------------------------------------------------ *)
(* Cost: the Exec level walk in a timing-only context                 *)
(* ------------------------------------------------------------------ *)

let modelled_us ?device (gen : Codegen.generated) =
  let ctx = Gpu.Context.create ~mode:Gpu.Context.Timing_only ?device () in
  let inputs =
    List.map
      (fun (p : Arrayol.Model.port) ->
        let shape = p.Arrayol.Model.pshape in
        ( p.Arrayol.Model.pname,
          Tensor.of_array shape (Optimizer.Tune.synthetic (Shape.size shape)) ))
      gen.Codegen.boundary_inputs
  in
  ignore (Exec.run ctx gen ~inputs);
  Gpu.Context.elapsed_us ctx

(* ------------------------------------------------------------------ *)
(* View                                                                *)
(* ------------------------------------------------------------------ *)

(* Rewrite one kernel task through a grid-level rule; [None] when the
   rule does not apply or the rewritten task fails the verifier. *)
let rewrite_task (g : Codegen.generated) instance f =
  let changed = ref false in
  let kernel_tasks =
    List.map
      (fun kt ->
        if kt.Codegen.instance <> instance then kt
        else
          match f (kt.Codegen.kernel, kt.Codegen.grid) with
          | Some (kernel, grid)
            when Verify.check [ { kt with Codegen.kernel; grid } ] = [] ->
              changed := true;
              { kt with Codegen.kernel; grid }
          | _ -> kt)
      g.Codegen.kernel_tasks
  in
  if !changed then Some { g with Codegen.kernel_tasks } else None

let view ?device () =
  {
    Optimizer.Tune.pipeline = "mde";
    device =
      (match device with
      | Some (d : Gpu.Device.t) -> d.Gpu.Device.name
      | None -> "default");
    shape =
      (fun g ->
        match g.Codegen.boundary_inputs with
        | p :: _ when Array.length p.Arrayol.Model.pshape >= 2 ->
            (p.Arrayol.Model.pshape.(0), p.Arrayol.Model.pshape.(1))
        | _ -> (1, 1));
    cost = modelled_us ?device;
    fingerprint;
    (* Task instance names carry no gensym counters: the fingerprint is
       the cache digest and rule names need no renaming. *)
    canonical = (fun g -> (fingerprint g, Fun.id));
    fuse_candidates = Fuse_chain.candidates;
    fuse_all = Fuse_chain.optimize;
    units =
      (fun g ->
        List.map
          (fun kt -> (kt.Codegen.instance, [ 2; 4 ]))
          g.Codegen.kernel_tasks);
    rewrite = rewrite_task;
  }

let tune ?device gen =
  let g, fstats, rules = Optimizer.Tune.tune (view ?device ()) gen in
  ((if rules = [] then g else Codegen.render g), fstats, rules)
