(* OpenCL spellings of Gpu.Context, kept for the repository benchmark
   (perfbench/perf.ml), which names the Gaspard2 route's device this
   way. *)

type context = Gpu.Context.t

let create_context = Gpu.Context.create

let elapsed_us = Gpu.Context.elapsed_us
