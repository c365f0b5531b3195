open Ndarray

type outcome = {
  result : int Tensor.t;
  host_us : float;
  kernel_launches : int;
}

type residency = {
  mutable host : int Tensor.t option;
  mutable device : Gpu.Buffer.t option;
  shape : int array;
}

type device_ops = {
  alloc : name:string -> int -> Gpu.Buffer.t;
  upload : Gpu.Buffer.t -> int array -> unit;
  download : Gpu.Buffer.t -> int array -> unit;
  launch :
    label:string ->
    split:int ->
    Gpu.Kir.t ->
    grid:int array ->
    args:(string * Gpu.Kir.arg) list ->
    unit;
  release : Gpu.Buffer.t -> unit;
}

let run_with ?(host_mode = `Execute) ?(liveness = false) ?plane_tag
    (ops : device_ops) (plan : Plan.t) ~args =
  Obs.Tracer.with_span ~cat:"sac" "sac.exec_plan" @@ fun () ->
  let tag_kernel (k : Gpu.Kir.t) =
    match plane_tag with
    | None -> k
    | Some tag -> { k with Gpu.Kir.kname = k.Gpu.Kir.kname ^ "@" ^ tag }
  in
  let vars : (string, residency) Hashtbl.t = Hashtbl.create 16 in
  let host_us = ref 0.0 in
  let launches = ref 0 in
  (* Buffer liveness (--opt fuse|auto): free each device buffer right
     after the last item that can read it, so peak device memory tracks
     the working set instead of the whole plan.  Alias classes follow
     Copy items (aliased names share one buffer); the plan result is
     pinned until the end. *)
  let liveness =
    if not liveness then None
    else begin
      let rep : (string, string) Hashtbl.t = Hashtbl.create 16 in
      let rec find n =
        match Hashtbl.find_opt rep n with
        | Some p when p <> n -> find p
        | _ -> n
      in
      let union a b =
        let ra = find a and rb = find b in
        if ra <> rb then Hashtbl.replace rep ra rb
      in
      List.iter
        (function
          | Plan.Copy { target; source } -> union target source
          | _ -> ())
        plan.Plan.items;
      let last : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let use i n = Hashtbl.replace last (find n) i in
      List.iteri
        (fun i item ->
          match item with
          | Plan.Device_withloop { swith; full_cover; _ } -> (
              List.iter
                (fun (a, _) -> use i a)
                swith.Sac.Scalarize.arrays;
              match (full_cover, swith.Sac.Scalarize.base) with
              | false, Sac.Scalarize.Base_array b -> use i b
              | _ -> ())
          | Plan.Host_block { reads; writes; _ } ->
              List.iter (use i) reads;
              List.iter (use i) writes
          | Plan.Copy { source; _ } -> use i source
          | Plan.Const_array _ -> ())
        plan.Plan.items;
      Hashtbl.replace last (find plan.Plan.result) max_int;
      Some (find, last)
    end
  in
  let release_dead i =
    match liveness with
    | None -> ()
    | Some (find, last) ->
        (* Aliased names share one physical buffer: clear them all,
           free each buffer once. *)
        let dead = ref [] in
        Hashtbl.iter
          (fun name r ->
            match r.device with
            | Some buf when Hashtbl.find_opt last (find name) = Some i ->
                r.device <- None;
                if not (List.memq buf !dead) then dead := buf :: !dead
            | _ -> ())
          vars;
        List.iter ops.release !dead
  in
  let declare name shape = Hashtbl.replace vars name { host = None; device = None; shape } in
  let lookup name =
    match Hashtbl.find_opt vars name with
    | Some r -> r
    | None -> invalid_arg (Printf.sprintf "sac_cuda exec: unknown array %s" name)
  in
  (* Bind parameters (host-resident, value semantics). *)
  List.iter
    (fun (name, shape) ->
      match List.assoc_opt name args with
      | Some t ->
          if not (Shape.equal (Tensor.shape t) shape) then
            invalid_arg
              (Printf.sprintf "sac_cuda exec: argument %s has shape %s, expected %s"
                 name
                 (Shape.to_string (Tensor.shape t))
                 (Shape.to_string shape));
          declare name shape;
          (lookup name).host <- Some (Tensor.copy t)
      | None -> invalid_arg (Printf.sprintf "sac_cuda exec: missing argument %s" name))
    plan.Plan.params;
  let ensure_host name =
    let r = lookup name in
    match r.host with
    | Some t -> t
    | None -> (
        match r.device with
        | Some buf ->
            let data = Array.make (Gpu.Buffer.length buf) 0 in
            ops.download buf data;
            let t = Tensor.of_array r.shape data in
            r.host <- Some t;
            t
        | None ->
            invalid_arg
              (Printf.sprintf "sac_cuda exec: %s read before definition" name))
  in
  let ensure_device name =
    let r = lookup name in
    match r.device with
    | Some buf -> buf
    | None -> (
        match r.host with
        | Some t ->
            let buf =
              ops.alloc ~name:(Kernelize.sanitize name) (Tensor.size t)
            in
            ops.upload buf (Tensor.data t);
            r.device <- Some buf;
            buf
        | None ->
            invalid_arg
              (Printf.sprintf "sac_cuda exec: %s read before definition" name))
  in
  let invalidate_device name =
    match Hashtbl.find_opt vars name with
    | Some r -> r.device <- None
    | None -> ()
  in
  List.iteri
    (fun item_index item ->
      (match item with
      | Plan.Const_array { target; shape; fill } ->
          declare target shape;
          (lookup target).host <- Some (Tensor.create shape fill)
      | Plan.Copy { target; source } ->
          let src = lookup source in
          declare target src.shape;
          let dst = lookup target in
          (match src.host with
          | Some t -> dst.host <- Some (Tensor.copy t)
          | None -> ());
          (* Device-side aliasing is safe: plans are single-assignment
             and buffers are only read after this point. *)
          dst.device <- src.device
      | Plan.Device_withloop { target; swith; kernels; full_cover; label } ->
          let out_shape =
            Shape.concat swith.Sac.Scalarize.frame
              swith.Sac.Scalarize.cell_shape
          in
          let input_bufs =
            List.map
              (fun (a, _) -> (Kernelize.sanitize a, ensure_device a))
              swith.Sac.Scalarize.arrays
          in
          declare target out_shape;
          let out =
            ops.alloc ~name:(Kernelize.sanitize target) (Shape.size out_shape)
          in
          (lookup target).device <- Some out;
          (if not full_cover then
             match swith.Sac.Scalarize.base with
             | Sac.Scalarize.Base_const 0 -> ()
             | Sac.Scalarize.Base_const c ->
                 Gpu.Buffer.fill out c (* cudaMemset *)
             | Sac.Scalarize.Base_array b ->
                 (* Materialise the base by uploading it into the output
                    buffer. *)
                 let t = ensure_host b in
                 ops.upload out (Tensor.data t));
          let split = List.length kernels in
          List.iter
            (fun (kernel, grid) ->
              incr launches;
              ops.launch ~label ~split (tag_kernel kernel) ~grid
                ~args:
                  (List.map
                     (fun (n, b) -> (n, Gpu.Kir.Buffer_arg b))
                     input_bufs
                  @ [ ("out", Gpu.Kir.Buffer_arg out) ]))
            kernels
      | Plan.Host_block { stmts; reads; writes } ->
          let bindings =
            List.filter_map
              (fun name ->
                match Hashtbl.find_opt vars name with
                | Some _ -> Some (name, Sac.Value.Varr (ensure_host name))
                | None -> None)
              (List.sort_uniq compare reads)
          in
          let env = Sac.Interp.env_of_list bindings in
          let interpret_fully () =
            Sac.Value.reset_counters ();
            (match Sac.Interp.exec_stmts [] env stmts with
            | None -> ()
            | Some _ -> invalid_arg "sac_cuda exec: return inside host block");
            {
              Host_cost.ops = float_of_int (Sac.Value.ops ());
              updates = float_of_int (Sac.Value.updates ());
            }
          in
          let counts =
            Obs.Tracer.with_span ~cat:"sac" "sac.host_block" @@ fun () ->
            match host_mode with
            | `Estimate -> (
                match Host_cost.sampled_counts env stmts with
                | Some c -> c
                | None -> interpret_fully ())
            | `Execute -> interpret_fully ()
          in
          host_us :=
            !host_us
            +. Gpu.Perf_model.host_block_time_us ~ops:counts.Host_cost.ops
                 ~updates:counts.Host_cost.updates;
          (* Pull written arrays back out of the interpreter env. *)
          List.iter
            (fun name ->
              match Sac.Interp.eval_expr [] env (Sac.Ast.Var name) with
              | Sac.Value.Varr t ->
                  (match Hashtbl.find_opt vars name with
                  | Some r ->
                      r.host <- Some t;
                      invalidate_device name
                  | None ->
                      declare name (Tensor.shape t);
                      (lookup name).host <- Some t)
              | Sac.Value.Vint _ -> ()
              | exception Sac.Ast.Sac_error _ -> ())
            (List.sort_uniq compare writes));
      release_dead item_index)
    plan.Plan.items;
  (* No copy: [vars] dies here, and each host tensor is an argument's
     copy or freshly built. *)
  let result = ensure_host plan.Plan.result in
  { result; host_us = !host_us; kernel_launches = !launches }

let cuda_ops rt =
  {
    alloc = (fun ~name len -> Cuda.Runtime.malloc rt ~name len);
    upload = (fun buf data -> Cuda.Runtime.memcpy_h2d rt ~dst:buf ~src:data);
    download = (fun buf data -> Cuda.Runtime.memcpy_d2h rt ~dst:data ~src:buf);
    launch =
      (fun ~label ~split kernel ~grid ~args ->
        Cuda.Runtime.launch rt ~label ~split kernel ~grid ~args);
    release = (fun buf -> Cuda.Runtime.mem_free rt buf);
  }

let run ?host_mode ?liveness ?plane_tag rt plan ~args =
  run_with ?host_mode ?liveness ?plane_tag (cuda_ops rt) plan ~args
