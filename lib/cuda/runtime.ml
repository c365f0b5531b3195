type t = { ctx : Gpu.Context.t }

type devptr = Gpu.Buffer.t

let init ?mode ?ordinal ?topology ?(device = Gpu.Device.gtx480) () =
  { ctx = Gpu.Context.create ?mode ?ordinal ?topology device }

let context t = t.ctx

let malloc t ~name n = Gpu.Context.alloc t.ctx ~name n

let memcpy_h2d ?label t ~dst ~src = Gpu.Context.h2d ?label t.ctx dst src

let memcpy_d2h ?label t ~dst ~src = Gpu.Context.d2h ?label t.ctx src dst

type dim3 = { x : int; y : int; z : int }

let dim3 ?(y = 1) ?(z = 1) x = { x; y; z }

let ceil_div a b = (a + b - 1) / b

let blocks_for ~grid ~block =
  (* Row-major shape: the last dimension is the fastest-varying and maps
     to CUDA x. *)
  let dim d =
    let r = Ndarray.Shape.rank grid in
    if d < r then grid.(r - 1 - d) else 1
  in
  {
    x = ceil_div (dim 0) block.x;
    y = ceil_div (dim 1) block.y;
    z = ceil_div (dim 2) block.z;
  }

let launch ?label ?split t kernel ~grid ~args =
  Gpu.Context.launch ?label ?split t.ctx kernel ~grid ~args

let device_synchronize _ = ()

let elapsed_us t = Gpu.Context.elapsed_us t.ctx

let profile t = Gpu.Profiler.rows (Gpu.Context.timeline t.ctx)
