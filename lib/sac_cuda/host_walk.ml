open Ndarray
module C = Gpu.C_print

type t = {
  kernels : (Gpu.Kir.t * int array) list;
  steps : C.host_step list;
  live : string list;
}

let dev name = "d_" ^ Kernelize.sanitize name

let host name = "h_" ^ Kernelize.sanitize name

let statement_count stmts =
  C.Comment
    (Printf.sprintf "host-resident SAC code (%d statements)"
       (List.length stmts))

let of_plan ?(host_block = statement_count) ?(label_withloops = false)
    (plan : Plan.t) =
  let on_device : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let sizes : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (p, shape) -> Hashtbl.replace sizes p (Shape.size shape))
    plan.Plan.params;
  let size v = Option.value ~default:0 (Hashtbl.find_opt sizes v) in
  let steps = ref [] in
  let push s = steps := s :: !steps in
  let ensure_device v =
    if not (Hashtbl.mem on_device v) then begin
      let len = size v in
      push (C.Alloc { dst = dev v; len });
      push (C.Upload { dst = dev v; src = host v; len });
      Hashtbl.replace on_device v ()
    end
  in
  let kernels = ref [] in
  List.iter
    (function
      | Plan.Const_array { target; shape; fill } ->
          Hashtbl.replace sizes target (Shape.size shape);
          push
            (C.Comment
               (Printf.sprintf "%s = constant array (%d) of shape %s"
                  (host target) fill (Shape.to_string shape)))
      | Plan.Copy { target; source } ->
          Option.iter (Hashtbl.replace sizes target)
            (Hashtbl.find_opt sizes source);
          if Hashtbl.mem on_device source then
            Hashtbl.replace on_device target ();
          push
            (C.Comment
               (Printf.sprintf "%s aliases %s" (host target) (host source)))
      | Plan.Device_withloop { target; swith; kernels = ks; label; _ } ->
          let len =
            Shape.size
              (Shape.concat swith.Sac.Scalarize.frame
                 swith.Sac.Scalarize.cell_shape)
          in
          Hashtbl.replace sizes target len;
          if label_withloops then
            push (C.Comment (Printf.sprintf "CUDA-WITH-loop: %s" label));
          List.iter (fun (a, _) -> ensure_device a) swith.Sac.Scalarize.arrays;
          push (C.Alloc { dst = dev target; len });
          Hashtbl.replace on_device target ();
          List.iter
            (fun ((k : Gpu.Kir.t), grid) ->
              kernels := (k, grid) :: !kernels;
              (* Kernel formals are sanitized array names, and
                 sanitizing is idempotent: "d_" ^ formal is the
                 array's device name. *)
              let args =
                List.map
                  (fun (p : Gpu.Kir.param) ->
                    let pname = p.Gpu.Kir.pname in
                    (pname, if pname = "out" then dev target else "d_" ^ pname))
                  k.Gpu.Kir.params
              in
              push (C.Launch { kernel = k; grid; args }))
            ks
      | Plan.Host_block { stmts; reads; _ } ->
          List.iter
            (fun v ->
              if Hashtbl.mem on_device v then begin
                push (C.Download { dst = host v; src = dev v; len = size v });
                Hashtbl.remove on_device v
              end)
            reads;
          push (host_block stmts))
    plan.Plan.items;
  (* Result back to the host for display. *)
  if Hashtbl.mem on_device plan.Plan.result then
    push
      (C.Download
         {
           dst = host plan.Plan.result;
           src = dev plan.Plan.result;
           len = Shape.size plan.Plan.result_shape;
         });
  let live =
    List.filter_map
      (function
        | Plan.Device_withloop { target; _ } when Hashtbl.mem on_device target
          ->
            Some (dev target)
        | _ -> None)
      plan.Plan.items
  in
  { kernels = List.rev !kernels; steps = List.rev !steps; live }
