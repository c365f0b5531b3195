open Ndarray

exception Run_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Run_error m)) fmt

let run ?(label_of = fun task_name -> task_name) ?liveness ctx
    (gen : Codegen.generated) ~inputs =
  let host_name (p : Arrayol.Model.port) =
    "h_" ^ Codegen.sanitize p.Arrayol.Model.pname
  in
  let mem : (string, int array) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (p : Arrayol.Model.port) ->
      match List.assoc_opt p.Arrayol.Model.pname inputs with
      | None -> fail "missing input %s" p.Arrayol.Model.pname
      | Some t ->
          if not (Shape.equal (Tensor.shape t) p.Arrayol.Model.pshape) then
            fail "input %s: shape %s expected, got %s" p.Arrayol.Model.pname
              (Shape.to_string p.Arrayol.Model.pshape)
              (Shape.to_string (Tensor.shape t));
          Hashtbl.replace mem (host_name p) (Tensor.data t))
    gen.Codegen.boundary_inputs;
  let steps =
    List.map
      (function
        | Gpu.C_print.Launch l ->
            Gpu.C_print.Launch { l with label = label_of l.label }
        | step -> step)
      (Codegen.host_steps ?liveness gen)
  in
  (try
     Gpu.Host_run.run
       (Opencl.Runtime.gpu_context ctx)
       {
         Gpu.Host_run.read = Hashtbl.find mem;
         write = Hashtbl.replace mem;
         route = (fun () -> ());
       }
       steps
   with Invalid_argument m -> fail "%s" m);
  List.map
    (fun (p : Arrayol.Model.port) ->
      match Hashtbl.find_opt mem (host_name p) with
      | Some data ->
          (p.Arrayol.Model.pname, Tensor.of_array p.Arrayol.Model.pshape data)
      | None -> fail "output %s never produced" p.Arrayol.Model.pname)
    gen.Codegen.boundary_outputs
