(* Iterative 5-point heat diffusion in SAC: a classic HPC stencil.
   Each step is one compiled kernel launch; the boundary is preserved
   by the WITH-loop's modarray operation (uncovered indices copy the
   source).  On the device that is a second upload of the grid, into
   the output buffer before the kernel runs, which the emitted host
   program prints too: two host-to-device copies per step.  The
   transfer check reports the second one as a redundant-transfer
   warning (`sacc --emit lint`), since the kernel's input buffer
   already holds the grid.

   Run with: dune exec examples/stencil_heat.exe *)

open Ndarray

let n = 64

let steps = 50

let source =
  Printf.sprintf
    {|
int[*] main(int[%d,%d] grid)
{
    next = with {
        ([1, 1] <= [i, j] < [%d, %d]) {
            neighbours = grid[[i - 1, j]] + grid[[i + 1, j]] +
                         grid[[i, j - 1]] + grid[[i, j + 1]];
        } : (neighbours + 4 * grid[[i, j]]) / 8;
    } : modarray( grid);
    return( next);
}
|}
    n n (n - 1) (n - 1)

let () =
  let plan, _ = Sac_cuda.Compile.plan_of_source source ~entry:"main" in
  Printf.printf "heat step compiled to %d kernel(s)\n"
    (Sac_cuda.Plan.kernel_count plan);
  (* Hot square in a cold plate; hot west wall. *)
  let grid =
    ref
      (Tensor.init [| n; n |] (fun idx ->
           if idx.(1) = 0 then 1000
           else if
             idx.(0) > (n / 2) - 5
             && idx.(0) < (n / 2) + 5
             && idx.(1) > (n / 2) - 5
             && idx.(1) < (n / 2) + 5
           then 800
           else 0))
  in
  let rt = Cuda.Runtime.init () in
  let total t = Tensor.fold ( + ) 0 t in
  Printf.printf "step %3d: total heat %d, centre %d\n" 0 (total !grid)
    (Tensor.get !grid [| n / 2; n / 2 |]);
  for step = 1 to steps do
    let outcome = Sac_cuda.Exec.run rt plan ~args:[ ("grid", !grid) ] in
    grid := outcome.Sac_cuda.Exec.result;
    if step mod 10 = 0 then
      Printf.printf "step %3d: total heat %d, centre %d\n" step (total !grid)
        (Tensor.get !grid [| n / 2; n / 2 |])
  done;
  (* Sanity: diffusion smooths the field; the hot wall keeps feeding
     heat through the fixed boundary. *)
  let final = !grid in
  Printf.printf "west neighbour column warmed up: %b\n"
    (Tensor.get final [| n / 2; 1 |] > 100);
  print_string
    (Gpu.Profiler.to_string
       ~title:(Printf.sprintf "Device profile (%d steps):" steps)
       (Cuda.Runtime.profile rt))
