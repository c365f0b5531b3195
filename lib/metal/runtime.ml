(* Metal-flavoured device over the GPU simulator, backed by the same
   simulated Gpu.Context as the CUDA and OpenCL facades so all three
   backends run on identical modelled hardware. *)

type device = { spec : Gpu.Device.t; ctx : Gpu.Context.t }

let create_system_default_device ?mode ?ordinal ?topology
    ?(device = Gpu.Device.gtx480) () =
  { spec = device; ctx = Gpu.Context.create ?mode ?ordinal ?topology device }

let device_spec d = d.spec

let gpu_context d = d.ctx

let elapsed_us d = Gpu.Context.elapsed_us d.ctx

let profile d = Gpu.Profiler.rows (Gpu.Context.timeline d.ctx)
