let run ?host_mode ?liveness ?plane_tag dev plan ~args =
  Sac_cuda.Exec.run_context ?host_mode ?liveness ?plane_tag
    (Metal.Runtime.gpu_context dev) plan ~args

type sources = { metal : string; host : string; makefile : string }

let sources ~name plan =
  let w = Sac_cuda.Host_walk.of_plan plan in
  {
    metal = Metal.Emit.metal_file ~name w.Sac_cuda.Host_walk.kernels;
    host = Metal.Emit.host_program ~name ~steps:w.Sac_cuda.Host_walk.steps;
    makefile = Metal.Emit.makefile ~name;
  }
