let opencl_ops ctx =
  let queue = Opencl.Runtime.create_command_queue ctx in
  {
    Sac_cuda.Exec.alloc =
      (fun ~name len -> Opencl.Runtime.create_buffer ctx ~name len);
    upload = (fun buf data -> Opencl.Runtime.enqueue_write_buffer queue buf data);
    download = (fun buf data -> Opencl.Runtime.enqueue_read_buffer queue buf data);
    launch =
      (fun ~label ~split kernel ~grid ~args ->
        let program =
          Opencl.Runtime.create_program_with_source ctx
            ~name:kernel.Gpu.Kir.kname [ kernel ]
        in
        (match Opencl.Runtime.build_program program with
        | Ok () -> ()
        | Error m -> invalid_arg ("sac_opencl: " ^ m));
        let k = Opencl.Runtime.create_kernel program kernel.Gpu.Kir.kname in
        Opencl.Runtime.set_args k args;
        Opencl.Runtime.enqueue_nd_range_kernel queue k ~label ~split
          ~global_work_size:grid);
    release = (fun buf -> Opencl.Runtime.release_mem_object ctx buf);
  }

let run ?host_mode ?liveness ?plane_tag ctx plan ~args =
  Sac_cuda.Exec.run_with ?host_mode ?liveness ?plane_tag (opencl_ops ctx) plan
    ~args

type sources = { cl : string; host : string; makefile : string }

let sources ~name plan =
  let w = Sac_cuda.Host_walk.of_plan plan in
  {
    cl = Opencl.Emit.cl_file ~name w.Sac_cuda.Host_walk.kernels;
    host = Opencl.Emit.host_program ~name ~steps:w.Sac_cuda.Host_walk.steps;
    makefile = Opencl.Emit.makefile ~name;
  }
