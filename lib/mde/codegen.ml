open Ndarray
open Gpu

exception Codegen_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Codegen_error m)) fmt

type kernel_task = {
  instance : string;
  task_name : string;
  kernel : Kir.t;
  grid : int array;
  input_ports : (string * int array) list;
  output_ports : (string * int array) list;
}

type generated = {
  model_name : string;
  kernel_tasks : kernel_task list;
  levels : string list list;
  connections : Arrayol.Model.connection list;
  boundary_inputs : Arrayol.Model.port list;
  boundary_outputs : Arrayol.Model.port list;
  cl_source : string;
  host_source : string;
  makefile : string;
}

let sanitize name =
  String.map (fun c -> if c = '/' || c = '-' then '_' else c) name

(* Address of one array element touched by a tiler, as an expression
   over the work-item ids: per dimension
   [(o_d + sum_k paving[d][k]*gid_k + fitting[d][0]*i) mod extent_d],
   then linearised row-major — the exact arithmetic of Figure 11. *)
let tiler_address (spec : Tiler.spec) ~pattern_index =
  let rank = Shape.rank spec.Tiler.array_shape in
  let rep_rank = Shape.rank spec.Tiler.repetition_shape in
  let addr d =
    let terms = ref (Kir.Int spec.Tiler.tiler.Tiler.origin.(d)) in
    for k = 0 to rep_rank - 1 do
      let c = spec.Tiler.tiler.Tiler.paving.(d).(k) in
      if c <> 0 then
        terms :=
          Kir.Bin
            ( Kir.Add,
              !terms,
              if c = 1 then Kir.Gid k
              else Kir.Bin (Kir.Mul, Kir.Int c, Kir.Gid k) )
    done;
    let f = spec.Tiler.tiler.Tiler.fitting.(d).(0) * pattern_index in
    if f <> 0 then terms := Kir.Bin (Kir.Add, !terms, Kir.Int f);
    Kir.Bin (Kir.Mod, !terms, Kir.Int spec.Tiler.array_shape.(d))
  in
  let linear = ref (addr 0) in
  for d = 1 to rank - 1 do
    linear :=
      Kir.Bin
        ( Kir.Add,
          Kir.Bin (Kir.Mul, !linear, Kir.Int spec.Tiler.array_shape.(d)),
          addr d )
  done;
  !linear

let kernel_of_repetitive ~instance task =
  match task with
  | Arrayol.Model.Repetitive
      { name = task_name; repetition; inner; in_tilings; out_tilings; _ } ->
      let ip_name, inner_inputs, inner_outputs =
        match inner with
        | Arrayol.Model.Elementary { ip; inputs; outputs; _ } ->
            (ip, inputs, outputs)
        | _ -> fail "%s: only elementary inner tasks generate kernels" instance
      in
      let fragment_of =
        match Fragments.find ip_name with
        | Some f -> f
        | None -> fail "%s: no kernel fragment registered for IP %s" instance ip_name
      in
      (* Gather: one Let per pattern element, grouped by inner input
         port in declaration order. *)
      let gather_lets = ref [] in
      let elems = ref [] in
      List.iter
        (fun (p : Arrayol.Model.port) ->
          match
            List.find_opt
              (fun (t : Arrayol.Model.tiling) ->
                t.Arrayol.Model.inner_port = p.Arrayol.Model.pname)
              in_tilings
          with
          | None -> fail "%s: inner input %s has no tiler" instance p.Arrayol.Model.pname
          | Some tiling ->
              let spec = Arrayol.Model.in_tiler_spec task tiling in
              if Shape.rank spec.Tiler.pattern_shape <> 1 then
                fail "%s: only rank-1 patterns are generated" instance;
              for i = 0 to spec.Tiler.pattern_shape.(0) - 1 do
                let v =
                  Printf.sprintf "e_%s_%d"
                    (sanitize tiling.Arrayol.Model.inner_port)
                    i
                in
                gather_lets :=
                  Kir.Let
                    ( v,
                      Kir.Read
                        ( sanitize tiling.Arrayol.Model.outer_port,
                          tiler_address spec ~pattern_index:i ) )
                  :: !gather_lets;
                elems := Kir.Var v :: !elems
              done)
        inner_inputs;
      let gather_lets = List.rev !gather_lets in
      let elems = Array.of_list (List.rev !elems) in
      let fragment = fragment_of elems in
      let frag_lets =
        List.map (fun (v, e) -> Kir.Let (v, e)) fragment.Fragments.lets
      in
      (* Scatter: outputs distributed over the inner output ports in
         order. *)
      let stores = ref [] in
      let offset = ref 0 in
      List.iter
        (fun (p : Arrayol.Model.port) ->
          match
            List.find_opt
              (fun (t : Arrayol.Model.tiling) ->
                t.Arrayol.Model.inner_port = p.Arrayol.Model.pname)
              out_tilings
          with
          | None -> fail "%s: inner output %s has no tiler" instance p.Arrayol.Model.pname
          | Some tiling ->
              let spec = Arrayol.Model.out_tiler_spec task tiling in
              if Shape.rank spec.Tiler.pattern_shape <> 1 then
                fail "%s: only rank-1 patterns are generated" instance;
              for k = 0 to spec.Tiler.pattern_shape.(0) - 1 do
                stores :=
                  Kir.Store
                    ( sanitize tiling.Arrayol.Model.outer_port,
                      tiler_address spec ~pattern_index:k,
                      fragment.Fragments.outputs.(!offset + k) )
                  :: !stores
              done;
              offset := !offset + spec.Tiler.pattern_shape.(0))
        inner_outputs;
      let input_ports =
        List.map
          (fun (p : Arrayol.Model.port) -> (p.Arrayol.Model.pname, p.Arrayol.Model.pshape))
          (Arrayol.Model.inputs task)
      in
      let output_ports =
        List.map
          (fun (p : Arrayol.Model.port) -> (p.Arrayol.Model.pname, p.Arrayol.Model.pshape))
          (Arrayol.Model.outputs task)
      in
      let params =
        List.map
          (fun (n, _) -> { Kir.pname = sanitize n; kind = Kir.In_buffer })
          input_ports
        @ List.map
            (fun (n, _) -> { Kir.pname = sanitize n; kind = Kir.Out_buffer })
            output_ports
      in
      let kernel =
        {
          Kir.kname = sanitize instance ^ "_" ^ sanitize task_name;
          params;
          grid_rank = Shape.rank repetition;
          body = gather_lets @ frag_lets @ List.rev !stores;
        }
      in
      (match Kir.validate kernel with
      | Ok () -> ()
      | Error m -> fail "%s: generated kernel invalid: %s" instance m);
      {
        instance;
        task_name;
        kernel;
        grid = repetition;
        input_ports;
        output_ports;
      }
  | _ -> fail "%s: not a repetitive task" instance

(* The host program: boundary inputs uploaded, kernels launched level
   by level in schedule order, boundary outputs read back, and the
   buffers still allocated freed.  With [liveness], each buffer is
   freed after the last level that reads it (or, unread, after the
   level that produced it); boundary outputs stay live for the
   read-back. *)
let host_steps ?(liveness = false) (g : generated) =
  let buf_of inst port = "d_" ^ sanitize inst ^ "_" ^ sanitize port in
  let source_buffer target =
    match
      List.find_opt
        (fun (c : Arrayol.Model.connection) -> c.Arrayol.Model.cto = target)
        g.connections
    with
    | Some { Arrayol.Model.cfrom = Arrayol.Model.Boundary p; _ } ->
        Some ("d_in_" ^ sanitize p)
    | Some { Arrayol.Model.cfrom = Arrayol.Model.Part (inst, p); _ } ->
        Some (buf_of inst p)
    | None -> None
  in
  let level_tasks level =
    List.filter_map
      (fun inst -> List.find_opt (fun kt -> kt.instance = inst) g.kernel_tasks)
      level
  in
  let last_level : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun li level ->
      List.iter
        (fun kt ->
          List.iter
            (fun (port, _) ->
              Option.iter
                (fun b -> Hashtbl.replace last_level b li)
                (source_buffer (Arrayol.Model.Part (kt.instance, port))))
            kt.input_ports)
        (level_tasks level))
    g.levels;
  List.iter
    (fun (p : Arrayol.Model.port) ->
      Option.iter
        (fun b -> Hashtbl.replace last_level b max_int)
        (source_buffer (Arrayol.Model.Boundary p.Arrayol.Model.pname)))
    g.boundary_outputs;
  let live = ref [] in
  let alloc dst name len =
    live := dst :: !live;
    C_print.Alloc { dst; name; len }
  in
  let input_steps =
    List.concat_map
      (fun (p : Arrayol.Model.port) ->
        let len = Shape.size p.Arrayol.Model.pshape in
        let dst = "d_in_" ^ sanitize p.Arrayol.Model.pname in
        [
          alloc dst p.Arrayol.Model.pname len;
          C_print.Upload
            { dst; src = "h_" ^ sanitize p.Arrayol.Model.pname; len };
        ])
      g.boundary_inputs
  in
  let release = List.rev_map (fun name -> C_print.Free { name }) in
  let free_dead li =
    let dead, kept =
      List.partition
        (fun b ->
          liveness
          && Option.fold ~none:true ~some:(fun l -> l <= li)
               (Hashtbl.find_opt last_level b))
        !live
    in
    live := kept;
    release dead
  in
  let task_steps kt =
    let outs =
      List.map
        (fun (port, shape) ->
          alloc (buf_of kt.instance port)
            (kt.instance ^ "." ^ port)
            (Shape.size shape))
        kt.output_ports
    in
    let args =
      List.map
        (fun (port, _) ->
          ( sanitize port,
            Option.value ~default:"d_unbound"
              (source_buffer (Arrayol.Model.Part (kt.instance, port))) ))
        kt.input_ports
      @ List.map
          (fun (port, _) -> (sanitize port, buf_of kt.instance port))
          kt.output_ports
    in
    outs
    @ [
        C_print.Launch
          { kernel = kt.kernel; grid = kt.grid; args; label = kt.task_name; split = 1 };
      ]
  in
  let kernel_steps =
    List.concat
      (List.mapi
         (fun li level ->
           (* Bound first: the frees must see this level's allocations. *)
           let launches = List.concat_map task_steps (level_tasks level) in
           launches @ free_dead li)
         g.levels)
  in
  let output_steps =
    List.filter_map
      (fun (p : Arrayol.Model.port) ->
        Option.map
          (fun src ->
            C_print.Download
              {
                dst = "h_" ^ sanitize p.Arrayol.Model.pname;
                src;
                len = Shape.size p.Arrayol.Model.pshape;
              })
          (source_buffer (Arrayol.Model.Boundary p.Arrayol.Model.pname)))
      g.boundary_outputs
  in
  input_steps @ kernel_steps @ output_steps @ release !live

(* Model-to-text on an already-assembled task set: recomputed whenever
   a pass (kernel fusion) rewrites [kernel_tasks] or [connections]. *)
let render (g : generated) =
  let name = sanitize g.model_name in
  {
    g with
    cl_source =
      Opencl.Emit.cl_file ~name
        (List.map (fun kt -> (kt.kernel, kt.grid)) g.kernel_tasks);
    host_source = Opencl.Emit.host_program ~name ~steps:(host_steps g);
    makefile = Opencl.Emit.makefile ~name;
  }

let generate (model : Marte.model) =
  let application =
    match model.Marte.application with
    | Arrayol.Model.Compound _ as t -> t
    | Arrayol.Model.Repetitive _ as t ->
        (* Wrap a lone repetitive task in a trivial compound; the part
           instance keeps the task's name so allocations apply. *)
        let inst = Arrayol.Model.name t in
        Arrayol.Model.Compound
          {
            name = inst ^ "_app";
            parts = [ (inst, t) ];
            connections =
              List.map
                (fun (p : Arrayol.Model.port) ->
                  {
                    Arrayol.Model.cfrom =
                      Arrayol.Model.Boundary p.Arrayol.Model.pname;
                    cto = Arrayol.Model.Part (inst, p.Arrayol.Model.pname);
                  })
                (Arrayol.Model.inputs t)
              @ List.map
                  (fun (p : Arrayol.Model.port) ->
                    {
                      Arrayol.Model.cfrom =
                        Arrayol.Model.Part (inst, p.Arrayol.Model.pname);
                      cto = Arrayol.Model.Boundary p.Arrayol.Model.pname;
                    })
                  (Arrayol.Model.outputs t);
            inputs = Arrayol.Model.inputs t;
            outputs = Arrayol.Model.outputs t;
          }
    | _ -> fail "generate: application must be a compound or repetitive task"
  in
  let parts, connections, boundary_inputs, boundary_outputs =
    match application with
    | Arrayol.Model.Compound { parts; connections; inputs; outputs; _ } ->
        (parts, connections, inputs, outputs)
    | _ -> assert false
  in
  List.iter
    (fun (inst, t) ->
      match t with
      | Arrayol.Model.Repetitive _ -> (
          match Marte.allocation_of model inst with
          | Some { Marte.kind = Marte.Gpu; _ } -> ()
          | Some { Marte.kind = Marte.Cpu; _ } ->
              fail "generate: repetitive part %s allocated to the CPU" inst
          | None -> fail "generate: part %s is not allocated" inst)
      | _ -> fail "generate: part %s is not repetitive" inst)
    parts;
  let kernel_tasks =
    List.map (fun (inst, t) -> kernel_of_repetitive ~instance:inst t) parts
  in
  let schedule =
    Arrayol.Schedule.compute application
  in
  let levels =
    List.map
      (fun level ->
        List.map (fun (s : Arrayol.Schedule.step) -> s.Arrayol.Schedule.instance) level)
      schedule
  in
  render
    {
      model_name = model.Marte.mname;
      kernel_tasks;
      levels;
      connections;
      boundary_inputs;
      boundary_outputs;
      cl_source = "";
      host_source = "";
      makefile = "";
    }
