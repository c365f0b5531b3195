(* The cost runner below replays exactly the dataflow Chain.run
   executes — boundary uploads, kernel launches in schedule order with
   per-port buffers, boundary read-backs — against a timing-only
   context, so the search objective is the same modelled time the
   reproduction reports.  (It is deliberately independent of Chain so
   Chain.transform can invoke the tuner without a dependency cycle.) *)

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
(* Cost: schedule replay in a timing-only context                      *)
(* ------------------------------------------------------------------ *)

let modelled_us ?device (gen : Codegen.generated) =
  let ctx =
    Opencl.Runtime.create_context ~mode:Gpu.Context.Timing_only ?device ()
  in
  let queue = Opencl.Runtime.create_command_queue ctx in
  let program =
    Opencl.Runtime.create_program_with_source ctx ~name:gen.Codegen.model_name
      (List.map (fun kt -> kt.Codegen.kernel) gen.Codegen.kernel_tasks)
  in
  (match Opencl.Runtime.build_program program with
  | Ok () -> ()
  | Error m -> invalid_arg ("Mde.Autotune: " ^ m));
  let buffers : (Arrayol.Model.endpoint, Opencl.Runtime.mem) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (p : Arrayol.Model.port) ->
      let n = Shape.size p.Arrayol.Model.pshape in
      let mem =
        Opencl.Runtime.create_buffer ctx ~name:p.Arrayol.Model.pname n
      in
      Opencl.Runtime.enqueue_write_buffer queue mem
        (Optimizer.Tune.synthetic n);
      Hashtbl.replace buffers (Arrayol.Model.Boundary p.Arrayol.Model.pname) mem)
    gen.Codegen.boundary_inputs;
  let source_of target =
    match
      List.find_opt
        (fun (c : Arrayol.Model.connection) -> c.Arrayol.Model.cto = target)
        gen.Codegen.connections
    with
    | Some c -> c.Arrayol.Model.cfrom
    | None -> invalid_arg "Mde.Autotune: unconnected port"
  in
  List.iter
    (fun level ->
      List.iter
        (fun inst ->
          match
            List.find_opt
              (fun kt -> kt.Codegen.instance = inst)
              gen.Codegen.kernel_tasks
          with
          | None -> ()
          | Some kt ->
              let in_args =
                List.map
                  (fun (port, _) ->
                    let src = source_of (Arrayol.Model.Part (inst, port)) in
                    match Hashtbl.find_opt buffers src with
                    | Some mem -> (Codegen.sanitize port, Gpu.Kir.Buffer_arg mem)
                    | None -> invalid_arg "Mde.Autotune: value not ready")
                  kt.Codegen.input_ports
              in
              let out_args =
                List.map
                  (fun (port, shape) ->
                    let mem =
                      Opencl.Runtime.create_buffer ctx ~name:(inst ^ "." ^ port)
                        (Shape.size shape)
                    in
                    Hashtbl.replace buffers (Arrayol.Model.Part (inst, port)) mem;
                    (Codegen.sanitize port, Gpu.Kir.Buffer_arg mem))
                  kt.Codegen.output_ports
              in
              let kernel =
                Opencl.Runtime.create_kernel program
                  kt.Codegen.kernel.Gpu.Kir.kname
              in
              Opencl.Runtime.set_args kernel (in_args @ out_args);
              Opencl.Runtime.enqueue_nd_range_kernel queue kernel
                ~label:kt.Codegen.task_name ~global_work_size:kt.Codegen.grid)
        level)
    gen.Codegen.levels;
  Opencl.Runtime.finish queue;
  List.iter
    (fun (p : Arrayol.Model.port) ->
      let src = source_of (Arrayol.Model.Boundary p.Arrayol.Model.pname) in
      match Hashtbl.find_opt buffers src with
      | Some mem ->
          Opencl.Runtime.enqueue_read_buffer queue mem
            (Array.make (Shape.size p.Arrayol.Model.pshape) 0)
      | None -> invalid_arg "Mde.Autotune: output never produced")
    gen.Codegen.boundary_outputs;
  Opencl.Runtime.elapsed_us ctx

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
