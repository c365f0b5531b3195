(* A different image-processing workload written in SAC and compiled
   through the same pipeline: a gradient-magnitude edge detector.
   Shows that the compiler is not downscaler-specific — any
   data-parallel WITH-loop over static shapes becomes a kernel.

   Run with: dune exec examples/edge_detect.exe *)

open Ndarray

let rows = 96

let cols = 128

let source =
  Printf.sprintf
    {|
int[*] main(int[%d,%d] image)
{
    out = with {
        ([1, 1] <= [i, j] < [%d, %d]) {
            gx = image[[i, j + 1]] - image[[i, j - 1]];
            gy = image[[i + 1, j]] - image[[i - 1, j]];
            mag = max(gx, 0 - gx) + max(gy, 0 - gy);
        } : min(mag, 255);
    } : genarray([%d, %d], 0);
    return( out);
}
|}
    rows cols (rows - 1) (cols - 1) rows cols

let () =
  (* A synthetic test card: two flat regions and a disc. *)
  let image =
    Tensor.init [| rows; cols |] (fun idx ->
        let i = idx.(0) and j = idx.(1) in
        let dx = i - (rows / 2) and dy = j - (cols / 2) in
        if (dx * dx) + (dy * dy) < 500 then 220
        else if j < cols / 3 then 40
        else 90)
  in
  let plan, _ = Sac_cuda.Compile.plan_of_source source ~entry:"main" in
  Printf.printf "compiled edge detector: %d kernel(s)\n"
    (Sac_cuda.Plan.kernel_count plan);
  print_string (Sac_cuda.Emit_cu.source ~name:"edge_detect" plan);
  let ctx = Gpu.Context.create () in
  let outcome = Sac_cuda.Exec.run ctx plan ~args:[ ("image", image) ] in
  let edges = outcome.Sac_cuda.Exec.result in
  (* Cross-check against the interpreter (the semantic reference). *)
  let interpreted =
    Sac.Interp.run (Sac.Parser.program source) ~entry:"main"
      ~args:[ Sac.Value.Varr image ]
  in
  Printf.printf "\nkernel result matches the SAC interpreter: %b\n"
    (Sac.Value.equal (Sac.Value.Varr edges) interpreted);
  (* The disc boundary must light up; flat regions must stay dark. *)
  let bright =
    Tensor.fold (fun acc v -> if v > 100 then acc + 1 else acc) 0 edges
  in
  Printf.printf "edge pixels found: %d\n" bright;
  let out = Filename.temp_file "edges" ".pgm" in
  Video.Frame_io.write_pgm out edges;
  Printf.printf "wrote %s\n" out
