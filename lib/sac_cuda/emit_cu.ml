(* A host block prints as its SAC source in comments: the host
   compiler of the real system compiles it natively. *)
let host_block_code stmts =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "    /* host-resident SAC code (not a CUDA-WITH-loop) */\n";
  List.iter
    (fun stmt ->
      let text = Format.asprintf "%a" Sac.Ast.pp_stmt stmt in
      String.split_on_char '\n' text
      |> List.iter (fun line -> Buffer.add_string buf ("    // " ^ line ^ "\n")))
    stmts;
  Buffer.contents buf

let source ~name (plan : Plan.t) =
  let w =
    Host_walk.of_plan ~host_block:host_block_code ~label_withloops:true plan
  in
  Cuda.Emit.program ~name ~kernels:w.kernels ~steps:w.steps
