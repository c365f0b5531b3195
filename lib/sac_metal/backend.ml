let metal_ops dev =
  let queue = Metal.Runtime.new_command_queue dev in
  {
    Sac_cuda.Exec.alloc =
      (fun ~name len -> Metal.Runtime.new_buffer dev ~name len);
    upload = (fun buf data -> Metal.Runtime.blit_to_device queue buf data);
    download = (fun buf data -> Metal.Runtime.blit_from_device queue buf data);
    launch =
      (fun ~label ~split kernel ~grid ~args ->
        let pipeline =
          match Metal.Runtime.new_compute_pipeline_state dev kernel with
          | Ok p -> p
          | Error m -> invalid_arg ("sac_metal: " ^ m)
        in
        Metal.Runtime.dispatch_threads queue pipeline ~label ~split ~grid
          ~args);
    release = (fun buf -> Metal.Runtime.release_buffer dev buf);
  }

let run ?host_mode ?liveness ?plane_tag dev plan ~args =
  Sac_cuda.Exec.run_with ?host_mode ?liveness ?plane_tag (metal_ops dev) plan
    ~args

type sources = { metal : string; host : string; makefile : string }

let sources ~name plan =
  let w = Sac_cuda.Host_walk.of_plan plan in
  {
    metal = Metal.Emit.metal_file ~name w.Sac_cuda.Host_walk.kernels;
    host = Metal.Emit.host_program ~name ~steps:w.Sac_cuda.Host_walk.steps;
    makefile = Metal.Emit.makefile ~name;
  }
