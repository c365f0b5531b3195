(* Static verification of generated kernel tasks and host programs.

   Every GPU-allocated repetitive task's kernel goes through the
   interval bounds checker, and each output port through the
   race/coverage checker with [full_cover = true]: ArrayOL semantics
   require the output tiler to pave the port's array exactly once, so
   an overlap is a race and a gap is a cover violation.  The host
   program goes through the transfer check.

   Callers may refine [?file] with the chain pass that triggered the
   check (e.g. "mde:opencl2verified"), so findings carry the pass name
   in their [file:where:] prefix like the SAC route does. *)

open Ndarray

let default_file = "mde"

let check_task ?(file = default_file) (kt : Codegen.kernel_task) =
  let buffers =
    List.map
      (fun (n, shape) -> (Codegen.sanitize n, Shape.size shape))
      (kt.Codegen.input_ports @ kt.Codegen.output_ports)
  in
  Analysis.Kir_check.check ~file ~buffers ~grid:kt.Codegen.grid
    kt.Codegen.kernel
  @ List.concat_map
      (fun (n, shape) ->
        Analysis.Race.check_group ~file ~out:(Codegen.sanitize n)
          ~len:(Shape.size shape) ~full_cover:true
          [ (kt.Codegen.kernel, kt.Codegen.grid) ])
      kt.Codegen.output_ports

let check ?file tasks = List.concat_map (check_task ?file) tasks

(* The liveness host program is the plain one plus its mid-program
   frees, so checking it covers both.  Gaspard2 host programs run no
   host code of their own. *)
let check_steps ?(file = default_file) (g : Codegen.generated) steps =
  let host (p : Arrayol.Model.port) = "h_" ^ Codegen.sanitize p.Arrayol.Model.pname in
  Analysis.Transfer.check ~file ~route:(fun () -> Analysis.Transfer.no_access)
    ~inputs:(List.map host g.Codegen.boundary_inputs)
    ~outputs:(List.map host g.Codegen.boundary_outputs) steps

let check_generated ?file (g : Codegen.generated) =
  check ?file g.Codegen.kernel_tasks
  @ check_steps ?file g (Codegen.host_steps ~liveness:true g)

let gate ?file tasks =
  Analysis.Finding.gate ~what:"generated kernels" ~kernels:(List.length tasks)
    (fun () -> check ?file tasks)

let gate_generated ?file g =
  Analysis.Finding.gate ~what:"generated kernels"
    ~kernels:(List.length g.Codegen.kernel_tasks)
    (fun () -> check_generated ?file g)

(* Performance lints: the Gaspard2 chain keeps each task whole, so
   [split] is 1 — exactly the modelling assumption of Perf_model. *)
let perf_check ?(file = default_file) tasks =
  Analysis.Perf_lint.check_group ~file ~split:1
    (List.map (fun kt -> (kt.Codegen.kernel, kt.Codegen.grid)) tasks)

let perf_gate ?file tasks =
  Analysis.Finding.perf_gate ~what:"generated kernels" (fun () ->
      perf_check ?file tasks)
