type sources = { cl : string; host : string; makefile : string }

let sources ~name plan =
  let w = Sac_cuda.Host_walk.of_plan plan in
  {
    cl = Opencl.Emit.cl_file ~name w.Sac_cuda.Host_walk.kernels;
    host = Opencl.Emit.host_program ~name ~steps:w.Sac_cuda.Host_walk.steps;
    makefile = Opencl.Emit.makefile ~name;
  }
