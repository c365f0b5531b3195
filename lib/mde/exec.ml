open Ndarray

exception Run_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Run_error m)) fmt

let run ?(label_of = fun task_name -> task_name) ?(liveness = false) ctx
    (gen : Codegen.generated) ~inputs =
  let queue = Opencl.Runtime.create_command_queue ctx in
  let program =
    Opencl.Runtime.create_program_with_source ctx
      ~name:gen.Codegen.model_name
      (List.map (fun kt -> kt.Codegen.kernel) gen.Codegen.kernel_tasks)
  in
  (match Opencl.Runtime.build_program program with
  | Ok () -> ()
  | Error m -> fail "clBuildProgram: %s" m);
  let buffers : (Arrayol.Model.endpoint, Opencl.Runtime.mem) Hashtbl.t =
    Hashtbl.create 16
  in
  (* Upload boundary inputs. *)
  List.iter
    (fun (p : Arrayol.Model.port) ->
      let t =
        match List.assoc_opt p.Arrayol.Model.pname inputs with
        | Some t -> t
        | None -> fail "missing input %s" p.Arrayol.Model.pname
      in
      if not (Shape.equal (Tensor.shape t) p.Arrayol.Model.pshape) then
        fail "input %s: shape %s expected, got %s" p.Arrayol.Model.pname
          (Shape.to_string p.Arrayol.Model.pshape)
          (Shape.to_string (Tensor.shape t));
      let mem =
        Opencl.Runtime.create_buffer ctx ~name:p.Arrayol.Model.pname
          (Tensor.size t)
      in
      Opencl.Runtime.enqueue_write_buffer queue mem (Tensor.data t);
      Hashtbl.replace buffers (Arrayol.Model.Boundary p.Arrayol.Model.pname) mem)
    gen.Codegen.boundary_inputs;
  let source_of target =
    match
      List.find_opt
        (fun (c : Arrayol.Model.connection) -> c.Arrayol.Model.cto = target)
        gen.Codegen.connections
    with
    | Some c -> c.Arrayol.Model.cfrom
    | None -> fail "unconnected port"
  in
  (* Buffer liveness (--opt fuse|auto): release each device buffer
     after the last schedule level that reads it; boundary outputs stay
     live for the read-back.  Mirrors the plan-level pass in
     [Sac_cuda.Exec]. *)
  let last_use : (Arrayol.Model.endpoint, int) Hashtbl.t = Hashtbl.create 16 in
  if liveness then begin
    List.iteri
      (fun li level ->
        List.iter
          (fun inst ->
            match
              List.find_opt
                (fun kt -> kt.Codegen.instance = inst)
                gen.Codegen.kernel_tasks
            with
            | None -> ()
            | Some kt ->
                List.iter
                  (fun (port, _) ->
                    Hashtbl.replace last_use
                      (source_of (Arrayol.Model.Part (inst, port)))
                      li)
                  kt.Codegen.input_ports)
          level)
      gen.Codegen.levels;
    List.iter
      (fun (p : Arrayol.Model.port) ->
        Hashtbl.replace last_use
          (source_of (Arrayol.Model.Boundary p.Arrayol.Model.pname))
          max_int)
      gen.Codegen.boundary_outputs
  end;
  let release_after li =
    if liveness then begin
      let dead =
        Hashtbl.fold
          (fun ep mem acc ->
            match Hashtbl.find_opt last_use ep with
            | Some l when l > li -> acc
            | _ -> (ep, mem) :: acc)
          buffers []
      in
      List.iter
        (fun (ep, mem) ->
          Hashtbl.remove buffers ep;
          Opencl.Runtime.release_mem_object ctx mem)
        dead
    end
  in
  (* Launch kernels in schedule order. *)
  List.iteri
    (fun level_index level ->
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
                    | None -> fail "value for %s.%s not ready" inst port)
                  kt.Codegen.input_ports
              in
              let out_args =
                List.map
                  (fun (port, shape) ->
                    let mem =
                      Opencl.Runtime.create_buffer ctx
                        ~name:(inst ^ "." ^ port) (Shape.size shape)
                    in
                    Hashtbl.replace buffers (Arrayol.Model.Part (inst, port)) mem;
                    (Codegen.sanitize port, Gpu.Kir.Buffer_arg mem))
                  kt.Codegen.output_ports
              in
              let kernel =
                Opencl.Runtime.create_kernel program kt.Codegen.kernel.Gpu.Kir.kname
              in
              Opencl.Runtime.set_args kernel (in_args @ out_args);
              Opencl.Runtime.enqueue_nd_range_kernel queue kernel
                ~label:(label_of kt.Codegen.task_name)
                ~global_work_size:kt.Codegen.grid)
        level;
      release_after level_index)
    gen.Codegen.levels;
  Opencl.Runtime.finish queue;
  (* Read boundary outputs back. *)
  List.map
    (fun (p : Arrayol.Model.port) ->
      let src = source_of (Arrayol.Model.Boundary p.Arrayol.Model.pname) in
      match Hashtbl.find_opt buffers src with
      | Some mem ->
          let data = Array.make (Shape.size p.Arrayol.Model.pshape) 0 in
          Opencl.Runtime.enqueue_read_buffer queue mem data;
          (p.Arrayol.Model.pname, Tensor.of_array p.Arrayol.Model.pshape data)
      | None -> fail "output %s never produced" p.Arrayol.Model.pname)
    gen.Codegen.boundary_outputs
