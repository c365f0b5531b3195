open Gpu

let param_text (p : Kir.param) =
  match p.kind with
  | Kir.Scalar -> Printf.sprintf "const int %s" p.pname
  | Kir.In_buffer -> Printf.sprintf "__global const int *%s" p.pname
  | Kir.Out_buffer -> Printf.sprintf "__global int *%s" p.pname

let dialect =
  {
    C_print.name = "Opencl.Emit";
    keyword = "__kernel void";
    params = List.map param_text;
    param_sep = ", ";
    prologue =
      (fun buf grid ->
        Printf.bprintf buf "    int iGID = get_global_id(0);\n";
        Printf.bprintf buf "    if (iGID >= %d) return;\n"
          (Ndarray.Shape.size grid);
        C_print.linear_gids buf ~var:"iGID" grid);
  }

let kernel ~grid k = C_print.kernel dialect ~grid k

let cl_file ~name kernels =
  let buf = Stdlib.Buffer.create 4096 in
  Printf.bprintf buf
    "/* %s.cl -- generated OpenCL kernels (simulated device).  Tiler\n\
    \ * gather/scatter address arithmetic follows the\n\
    \ * origin/paving/fitting formulae. */\n\n"
    name;
  C_print.kernels dialect buf kernels;
  Stdlib.Buffer.contents buf

let host_program ~name ~steps =
  let buf = Stdlib.Buffer.create 4096 in
  Printf.bprintf buf
    "/* %s.cpp -- generated host program (Gaspard2 OpenCL chain). */\n\
     #include <CL/cl.h>\n\
     #include <cstdio>\n\
     #include <cstdlib>\n\n\
     int main(void)\n\
     {\n\
    \    cl_platform_id platform;\n\
    \    cl_device_id device;\n\
    \    clGetPlatformIDs(1, &platform, NULL);\n\
    \    clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, 1, &device, NULL);\n\
    \    cl_context context = clCreateContext(NULL, 1, &device, NULL, NULL, \
     NULL);\n\
    \    cl_command_queue queue = clCreateCommandQueue(context, device, 0, \
     NULL);\n\
    \    cl_program program = build_program_from_file(context, \"%s.cl\");\n\n"
    name name;
  let kernel_no = ref 0 in
  List.iter
    (fun step ->
      match step with
      | C_print.Comment c -> Printf.bprintf buf "    /* %s */\n" c
      | C_print.Alloc { dst; len; _ } ->
          Printf.bprintf buf
            "    cl_mem %s = clCreateBuffer(context, CL_MEM_READ_WRITE, %d * \
             sizeof(int), NULL, NULL);\n"
            dst len
      | C_print.Upload { dst; src; len } ->
          Printf.bprintf buf
            "    clEnqueueWriteBuffer(queue, %s, CL_FALSE, 0, %d * \
             sizeof(int), %s, 0, NULL, NULL);\n"
            dst len src
      | C_print.Download { dst; src; len } ->
          Printf.bprintf buf
            "    clEnqueueReadBuffer(queue, %s, CL_TRUE, 0, %d * \
             sizeof(int), %s, 0, NULL, NULL);\n"
            src len dst
      | C_print.Fill { dst; value; len } ->
          Printf.bprintf buf
            "    { cl_int v = %d;\n\
            \      clEnqueueFillBuffer(queue, %s, &v, sizeof(int), 0, %d * \
             sizeof(int), 0, NULL, NULL); }\n"
            value dst len
      | C_print.Launch { kernel; grid; args; _ } ->
          incr kernel_no;
          let kv = Printf.sprintf "k%d" !kernel_no in
          Printf.bprintf buf
            "    cl_kernel %s = clCreateKernel(program, \"%s\", NULL);\n" kv
            kernel.Kir.kname;
          List.iteri
            (fun i ((p : Kir.param), actual) ->
              Printf.bprintf buf
                "    clSetKernelArg(%s, %d, sizeof(%s), &%s);\n" kv i
                (if p.Kir.kind = Kir.Scalar then "int" else "cl_mem")
                actual)
            (C_print.actuals dialect kernel args);
          Printf.bprintf buf
            "    { size_t gws = %d;\n\
            \      clEnqueueNDRangeKernel(queue, %s, 1, NULL, &gws, NULL, 0, \
             NULL, NULL); }\n"
            (Ndarray.Shape.size grid) kv
      | C_print.Route { code; _ } -> Printf.bprintf buf "%s\n" code
      | C_print.Free { name } ->
          Printf.bprintf buf "    clReleaseMemObject(%s);\n" name)
    steps;
  Stdlib.Buffer.add_string buf
    "    clFinish(queue);\n    return 0;\n}\n";
  Stdlib.Buffer.contents buf

let makefile ~name =
  Printf.sprintf
    "# Makefile -- generated by the Gaspard2 OpenCL chain (simulated)\n\
     CXX = g++\n\
     CXXFLAGS = -O3\n\
     LDLIBS = -lOpenCL\n\n\
     %s: %s.cpp\n\
     \t$(CXX) $(CXXFLAGS) -o $@ $< $(LDLIBS)\n\n\
     clean:\n\
     \trm -f %s\n"
    name name name
