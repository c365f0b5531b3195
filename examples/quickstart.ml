(* Quickstart: a five-minute tour of the library.

   1. tilers — the ArrayOL data-access abstraction;
   2. SAC — parse, interpret, optimise;
   3. the CUDA backend on the simulated GTX480;
   4. the Gaspard2 model chain.

   Run with: dune exec examples/quickstart.exe *)

open Ndarray

let banner title = Printf.printf "\n=== %s ===\n" title

(* 1. Tilers: cover a 4x16 array with 4-element patterns. *)
let () =
  banner "Tilers";
  let spec =
    Tiler.spec ~origin:[| 0; 0 |]
      ~fitting:(Linalg.of_lists [ [ 0 ]; [ 1 ] ])
      ~paving:(Linalg.of_lists [ [ 1; 0 ]; [ 0; 4 ] ])
      ~array_shape:[| 4; 16 |] ~pattern_shape:[| 4 |]
      ~repetition_shape:[| 4; 4 |]
  in
  Format.printf "%a@." Tiler.pp_spec spec;
  Printf.printf "exact cover: %b\n" (Tiler.is_exact_cover spec);
  let arr = Tensor.init [| 4; 16 |] (fun i -> (16 * i.(0)) + i.(1)) in
  let tile = Tiler.gather arr spec ~rep:[| 1; 2 |] in
  Printf.printf "pattern at repetition (1,2): %s\n"
    (String.concat " " (List.map string_of_int (Tensor.to_list tile)))

(* 2. SAC: a tiny program through parser, interpreter and optimiser. *)
let () =
  banner "SAC front end";
  let source =
    {|
int[*] double_evens(int[*] a)
{
    out = with {
        ([0] <= iv <= . step [2]) : a[iv] * 2;
    } : modarray( a);
    return( out);
}

int[*] main(int[*] a)
{
    b = double_evens(a);
    return( b);
}
|}
  in
  let prog = Sac.Parser.program source in
  let result =
    Sac.Interp.run prog ~entry:"main"
      ~args:[ Sac.Value.of_vector [| 1; 2; 3; 4; 5; 6 |] ]
  in
  Printf.printf "double_evens [1..6] = %s\n" (Sac.Value.to_string result)

(* 3. The paper's downscaler: optimise, compile, execute on the
   simulated device. *)
let () =
  banner "SAC -> CUDA (simulated GTX480)";
  let source = Sac.Programs.horizontal ~generic:false ~rows:18 ~cols:16 in
  let plan, report = Sac_cuda.Compile.plan_of_source source ~entry:"main" in
  Printf.printf "WLF folded %d intermediate with-loop(s); %d kernels\n"
    report.Sac.Pipeline.wlf_rounds
    (Sac_cuda.Plan.kernel_count plan);
  let frame = Tensor.init [| 18; 16 |] (fun i -> (i.(0) + i.(1)) mod 251) in
  let ctx = Gpu.Context.create () in
  let outcome = Sac_cuda.Exec.run ctx plan ~args:[ ("frame", frame) ] in
  Printf.printf "output shape: %s; bit-exact with reference: %b\n"
    (Shape.to_string (Tensor.shape outcome.Sac_cuda.Exec.result))
    (Tensor.equal Int.equal outcome.Sac_cuda.Exec.result
       (Video.Downscaler.horizontal frame));
  print_string
    (Gpu.Profiler.to_string (Gpu.Profiler.rows (Gpu.Context.timeline ctx)))

(* 4. Gaspard2: model -> transformation chain -> OpenCL. *)
let () =
  banner "ArrayOL/MARTE -> OpenCL";
  let model = Mde.Chain.downscaler_model ~rows:18 ~cols:16 in
  match Mde.Chain.transform model with
  | Error m -> Printf.printf "chain failed: %s\n" m
  | Ok (gen, trace) ->
      List.iter
        (fun (t : Mde.Chain.trace) ->
          Printf.printf "%-40s %s\n" t.Mde.Chain.pass t.Mde.Chain.detail)
        trace;
      Printf.printf "first kernel:\n%s"
        (match gen.Mde.Codegen.kernel_tasks with
        | kt :: _ ->
            Opencl.Emit.kernel ~grid:kt.Mde.Codegen.grid kt.Mde.Codegen.kernel
        | [] -> "(none)")
