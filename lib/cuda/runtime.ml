(* CUDA spellings of Gpu.Context, kept for the repository benchmark
   (perfbench/perf.ml), which names the SAC route's device this way. *)

type t = Gpu.Context.t

let init = Gpu.Context.create

let elapsed_us = Gpu.Context.elapsed_us
