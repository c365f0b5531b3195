open Gpu

let param_text (p : Kir.param) =
  match p.kind with
  | Kir.Scalar -> Printf.sprintf "int %s" p.pname
  | Kir.In_buffer -> Printf.sprintf "const int *%s" p.pname
  | Kir.Out_buffer -> Printf.sprintf "int *%s" p.pname

(* Row-major grids: dimension (rank-1) is the fastest-varying and maps
   to CUDA x, (rank-2) to y, (rank-3) to z.  Grids of higher rank run
   as a 1-D launch over their flattened size and decompose the linear
   thread id like the OpenCL and Metal emitters. *)
let prologue buf grid =
  let rank = Array.length grid in
  if rank > 3 then begin
    Printf.bprintf buf
      "    int iGID = blockIdx.x * blockDim.x + threadIdx.x;\n";
    Printf.bprintf buf "    if (iGID >= %d) return;\n"
      (Ndarray.Shape.size grid);
    C_print.linear_gids buf ~var:"iGID" grid
  end
  else begin
    for d = 0 to rank - 1 do
      let a = [| "x"; "y"; "z" |].(rank - 1 - d) in
      Printf.bprintf buf
        "    int gid%d = blockIdx.%s * blockDim.%s + threadIdx.%s;\n" d a a a
    done;
    if rank > 0 then begin
      let guards =
        List.init rank (fun d -> Printf.sprintf "gid%d >= %d" d grid.(d))
      in
      Printf.bprintf buf "    if (%s) return;\n" (String.concat " || " guards)
    end
  end

let dialect =
  {
    C_print.name = "Cuda.Emit";
    keyword = "__global__ void";
    params = List.map param_text;
    param_sep = ", ";
    prologue;
  }

let kernel ~grid k = C_print.kernel dialect ~grid k

let block_for_rank rank =
  (* 256 threads per block, shaped to the grid rank: the configuration
     the SAC backend derives from generator bounds. *)
  match rank with
  | 1 -> (256, 1, 1)
  | 2 -> (32, 8, 1)
  | _ -> (16, 4, 4)

let launch_text buf (k : Kir.t) grid args =
  let dims =
    if Ndarray.Shape.rank grid > 3 then [| Ndarray.Shape.size grid |] else grid
  in
  let rank = Array.length dims in
  let bx, by, bz = block_for_rank rank in
  let extent d = if d < rank then dims.(rank - 1 - d) else 1 in
  let ceil_div a b = (a + b - 1) / b in
  Printf.bprintf buf "    {\n";
  Printf.bprintf buf "        dim3 block(%d, %d, %d);\n" bx by bz;
  Printf.bprintf buf "        dim3 grid(%d, %d, %d);\n"
    (ceil_div (extent 0) bx)
    (ceil_div (extent 1) by)
    (ceil_div (extent 2) bz);
  let actuals = List.map snd (C_print.actuals dialect k args) in
  Printf.bprintf buf "        %s<<<grid, block>>>(%s);\n" k.Kir.kname
    (String.concat ", " actuals);
  Printf.bprintf buf "    }\n"

let program ~name ~kernels ~steps =
  let buf = Stdlib.Buffer.create 4096 in
  Printf.bprintf buf
    "/* %s.cu -- generated by the sac2cuda backend (simulated).\n\
    \ * One __global__ kernel per WITH-loop generator; data transfers\n\
    \ * correspond to the host2device/device2host instructions inserted\n\
    \ * around CUDA-WITH-loops. */\n\
     #include <cuda_runtime.h>\n\
     #include <stdio.h>\n\
     #include <stdlib.h>\n\n"
    name;
  C_print.kernels dialect buf kernels;
  Printf.bprintf buf "int main(void)\n{\n";
  List.iter
    (fun step ->
      match step with
      | C_print.Comment c -> Printf.bprintf buf "    /* %s */\n" c
      | C_print.Alloc { dst; len; _ } ->
          Printf.bprintf buf "    int *%s;\n" dst;
          Printf.bprintf buf
            "    cudaMalloc((void **)&%s, %d * sizeof(int));\n" dst len
      | C_print.Upload { dst; src; len } ->
          Printf.bprintf buf
            "    cudaMemcpyAsync(%s, %s, %d * sizeof(int), \
             cudaMemcpyHostToDevice);\n"
            dst src len
      | C_print.Download { dst; src; len } ->
          Printf.bprintf buf
            "    cudaMemcpyAsync(%s, %s, %d * sizeof(int), \
             cudaMemcpyDeviceToHost);\n"
            dst src len
      | C_print.Fill { dst; value; len } ->
          Printf.bprintf buf "    cuMemsetD32((CUdeviceptr)%s, %d, %d);\n" dst
            value len
      | C_print.Launch { kernel; grid; args; _ } ->
          launch_text buf kernel grid args
      | C_print.Route { code; _ } -> Printf.bprintf buf "%s\n" code
      | C_print.Free { name } -> Printf.bprintf buf "    cudaFree(%s);\n" name)
    steps;
  Printf.bprintf buf "    cudaDeviceSynchronize();\n    return 0;\n}\n";
  Stdlib.Buffer.contents buf
