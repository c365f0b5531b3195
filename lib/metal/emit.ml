open Gpu

(* Metal Shading Language dialect of the shared printer.  Like the
   OpenCL emitter it linearises the work-item id (here the
   [[thread_position_in_grid]] attribute of a 1-D dispatch) and
   decomposes it with %-and-/ chains; the MSL-specific surface is the
   address-space-qualified parameters with [[buffer(n)]] bindings. *)

(* Buffer bindings follow parameter order, scalars included: the host
   side binds buffers with setBuffer and scalars with setBytes at the
   same indices, so the two listings stay in sync by construction. *)
let param_text i (p : Kir.param) =
  match p.Kir.kind with
  | Kir.Scalar -> Printf.sprintf "constant int &%s [[buffer(%d)]]" p.Kir.pname i
  | Kir.In_buffer ->
      Printf.sprintf "const device int *%s [[buffer(%d)]]" p.Kir.pname i
  | Kir.Out_buffer ->
      Printf.sprintf "device int *%s [[buffer(%d)]]" p.Kir.pname i

let dialect =
  {
    C_print.name = "Metal.Emit";
    keyword = "kernel void";
    params =
      (fun ps ->
        List.mapi param_text ps @ [ "uint iGID [[thread_position_in_grid]]" ]);
    param_sep = ",\n                 ";
    prologue =
      (fun buf grid ->
        Printf.bprintf buf "    if (iGID >= %du) return;\n"
          (Ndarray.Shape.size grid);
        Printf.bprintf buf "    int lin = int(iGID);\n";
        C_print.linear_gids buf ~var:"lin" grid);
  }

let kernel ~grid k = C_print.kernel dialect ~grid k

let metal_file ~name kernels =
  let buf = Stdlib.Buffer.create 4096 in
  Printf.bprintf buf
    "/* %s.metal -- generated Metal compute kernels (simulated device). */\n\
     #include <metal_stdlib>\n\
     using namespace metal;\n\n"
    name;
  C_print.kernels dialect buf kernels;
  Stdlib.Buffer.contents buf

let host_program ~name ~steps =
  let buf = Stdlib.Buffer.create 4096 in
  Printf.bprintf buf
    "/* %s_host.cpp -- generated host program (Metal compute, \
     metal-cpp). */\n\
     #include <Metal/Metal.hpp>\n\
     #include <cstdio>\n\
     #include <cstring>\n\n\
     int main(void)\n\
     {\n\
    \    MTL::Device *device = MTL::CreateSystemDefaultDevice();\n\
    \    MTL::CommandQueue *queue = device->newCommandQueue();\n\
    \    NS::Error *err = nullptr;\n\
    \    MTL::Library *library = device->newLibrary(\n\
    \        NS::String::string(\"%s.metallib\", NS::UTF8StringEncoding), \
     &err);\n\n"
    name name;
  let kernel_no = ref 0 in
  List.iter
    (fun step ->
      match step with
      | C_print.Comment c -> Printf.bprintf buf "    /* %s */\n" c
      | C_print.Alloc { dst; len; _ } ->
          Printf.bprintf buf
            "    MTL::Buffer *%s = device->newBuffer(%d * sizeof(int), \
             MTL::ResourceStorageModeShared);\n"
            dst len
      | C_print.Upload { dst; src; len } ->
          Printf.bprintf buf
            "    memcpy(%s->contents(), %s, %d * sizeof(int));\n" dst src len
      | C_print.Download { dst; src; len } ->
          Printf.bprintf buf
            "    memcpy(%s, %s->contents(), %d * sizeof(int));\n" dst src len
      | C_print.Fill { dst; value; len } ->
          Printf.bprintf buf
            "    for (int i = 0; i < %d; i++) ((int *)%s->contents())[i] = %d;\n"
            len dst value
      | C_print.Launch { kernel; grid; args; _ } ->
          incr kernel_no;
          let n = !kernel_no in
          Printf.bprintf buf
            "    MTL::Function *f%d = library->newFunction(\n\
            \        NS::String::string(\"%s\", NS::UTF8StringEncoding));\n\
            \    MTL::ComputePipelineState *p%d = \
             device->newComputePipelineState(f%d, &err);\n\
            \    MTL::CommandBuffer *cb%d = queue->commandBuffer();\n\
            \    MTL::ComputeCommandEncoder *enc%d = \
             cb%d->computeCommandEncoder();\n\
            \    enc%d->setComputePipelineState(p%d);\n"
            n kernel.Kir.kname n n n n n n n;
          List.iteri
            (fun i ((p : Kir.param), actual) ->
              match p.Kir.kind with
              | Kir.Scalar ->
                  Printf.bprintf buf
                    "    enc%d->setBytes(&%s, sizeof(int), %d);\n" n actual i
              | Kir.In_buffer | Kir.Out_buffer ->
                  Printf.bprintf buf "    enc%d->setBuffer(%s, 0, %d);\n" n
                    actual i)
            (C_print.actuals dialect kernel args);
          Printf.bprintf buf
            "    enc%d->dispatchThreads(MTL::Size::Make(%d, 1, 1), \
             MTL::Size::Make(256, 1, 1));\n\
            \    enc%d->endEncoding();\n\
            \    cb%d->commit();\n\
            \    cb%d->waitUntilCompleted();\n"
            n (Ndarray.Shape.size grid) n n n
      | C_print.Route { code; _ } -> Printf.bprintf buf "%s\n" code
      | C_print.Free { name } -> Printf.bprintf buf "    %s->release();\n" name)
    steps;
  Stdlib.Buffer.add_string buf "    return 0;\n}\n";
  Stdlib.Buffer.contents buf

let makefile ~name =
  Printf.sprintf
    "# Makefile -- generated by the SAC Metal backend (simulated)\n\
     METAL = xcrun -sdk macosx metal\n\
     METALLIB = xcrun -sdk macosx metallib\n\
     CXX = clang++\n\
     CXXFLAGS = -std=c++17 -O3\n\
     LDFLAGS = -framework Metal -framework Foundation\n\n\
     %s: %s_host.cpp %s.metallib\n\
     \t$(CXX) $(CXXFLAGS) -o $@ %s_host.cpp $(LDFLAGS)\n\n\
     %s.metallib: %s.air\n\
     \t$(METALLIB) -o $@ $<\n\n\
     %s.air: %s.metal\n\
     \t$(METAL) -c -o $@ $<\n\n\
     clean:\n\
     \trm -f %s %s.air %s.metallib\n"
    name name name name name name name name name name name
