open Ndarray

type outcome = {
  result : int Tensor.t;
  host_us : float;
  kernel_launches : int;
}

let fail fmt = Printf.ksprintf invalid_arg ("sac_cuda exec: " ^^ fmt)

let run ?(host_mode = `Execute) ?(liveness = false) ?plane_tag ctx
    (plan : Plan.t) ~args =
  Obs.Tracer.with_span ~cat:"sac" "sac.exec_plan" @@ fun () ->
  (* Host memory, by host name.  Arguments are bound without a copy:
     host blocks are functional and uploads copy into device memory,
     so nothing writes to them. *)
  let mem : (string, int Tensor.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (name, shape) ->
      match List.assoc_opt name args with
      | Some t ->
          if not (Shape.equal (Tensor.shape t) shape) then
            fail "argument %s has shape %s, expected %s" name
              (Shape.to_string (Tensor.shape t))
              (Shape.to_string shape);
          Hashtbl.replace mem (Host_walk.host name) t
      | None -> fail "missing argument %s" name)
    plan.Plan.params;
  let find name =
    match Hashtbl.find_opt mem name with
    | Some t -> t
    | None -> fail "%s read before definition" name
  in
  let w = Host_walk.of_plan ~liveness plan in
  let host_us = ref 0.0 in
  let host_block stmts reads writes =
    let bindings =
      List.filter_map
        (fun name ->
          Option.map
            (fun t -> (name, Sac.Value.Varr t))
            (Hashtbl.find_opt mem (Host_walk.host name)))
        (List.sort_uniq compare reads)
    in
    let env = Sac.Interp.env_of_list bindings in
    let interpret_fully () =
      Sac.Value.reset_counters ();
      (match Sac.Interp.exec_stmts [] env stmts with
      | None -> ()
      | Some _ -> fail "return inside host block");
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
        | Sac.Value.Varr t -> Hashtbl.replace mem (Host_walk.host name) t
        | Sac.Value.Vint _ -> ()
        | exception Sac.Ast.Sac_error _ -> ())
      (List.sort_uniq compare writes)
  in
  let route = function
    | Plan.Const_array { target; shape; fill } ->
        Hashtbl.replace mem (Host_walk.host target) (Tensor.create shape fill)
    | Plan.Copy { target; source } ->
        Option.iter
          (Hashtbl.replace mem (Host_walk.host target))
          (Hashtbl.find_opt mem (Host_walk.host source))
    | Plan.Host_block { stmts; reads; writes } -> host_block stmts reads writes
    | Plan.Device_withloop _ -> ()
  in
  let steps =
    match plane_tag with
    | None -> w.Host_walk.steps
    | Some tag ->
        List.map
          (function
            | Gpu.C_print.Launch l ->
                Gpu.C_print.Launch
                  {
                    l with
                    kernel =
                      { l.kernel with Gpu.Kir.kname = l.kernel.Gpu.Kir.kname ^ "@" ^ tag };
                  }
            | step -> step)
          w.Host_walk.steps
  in
  Gpu.Host_run.run ctx
    {
      Gpu.Host_run.read = (fun name -> Tensor.data (find name));
      write =
        (fun name data ->
          Hashtbl.replace mem name
            (Tensor.of_array (List.assoc name w.Host_walk.downloads) data));
      route;
    }
    steps;
  let result = find (Host_walk.host plan.Plan.result) in
  (* The caller owns its arguments: a result that is one (returned
     directly or through copies) is handed back as a copy. *)
  let result =
    if List.exists (fun (_, a) -> a == result) args then Tensor.copy result
    else result
  in
  { result; host_us = !host_us; kernel_launches = Plan.kernel_count plan }
