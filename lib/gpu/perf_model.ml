let base_efficiency ~burst = function
  | `Row -> Calibration.base_efficiency_row ~burst
  | `Column -> Calibration.base_efficiency_column
  | `Gather -> Calibration.base_efficiency_gather

let effective_bandwidth_gbs ?(burst = 1.0) (d : Device.t) ~access ~split =
  d.dram_bandwidth_gbs
  *. base_efficiency ~burst access
  *. Calibration.split_factor split

(* Lanes of a warp that disagree on a branch serialise both sides: the
   ops inside divergent regions are effectively issued twice.  Only
   statically derived costs carry the divergence map; executed profiles
   keep the flat compute term. *)
let divergence_factor (cost : Kir.cost) =
  match cost.summary with
  | Some s when s.Kir.as_divergent_ops > 0. && cost.ops_per_thread > 0. ->
      1.0 +. (s.Kir.as_divergent_ops /. cost.ops_per_thread)
  | _ -> 1.0

let kernel_time_us (d : Device.t) ~threads ~(cost : Kir.cost) ~split =
  let tf = float_of_int threads in
  let bytes = tf *. (cost.reads_per_thread +. cost.writes_per_thread) *. 4.0 in
  let bw =
    effective_bandwidth_gbs ~burst:cost.read_burst d ~access:cost.access
      ~split
  in
  (* Grids below one full residency cannot cover memory latency: they
     pay an un-hidden latency share on top of the bandwidth term.
     Saturated grids (all paper-scale kernels) are unaffected. *)
  let occupancy =
    Float.min 1.0 (tf /. float_of_int (Device.saturation_threads d))
  in
  let latency_us = (1.0 -. occupancy) *. Calibration.memory_latency_us in
  (* GB/s = 1e3 bytes/us. *)
  let mem_us = (bytes /. (bw *. 1e3)) +. latency_us in
  let compute_us =
    tf *. cost.ops_per_thread
    /. (Device.int_throughput_gops d *. 1e3)
    *. divergence_factor cost
  in
  d.kernel_launch_us +. Float.max mem_us compute_us

(* What-if bandwidth of a scratchpad-staged load path: the global side
   becomes a fully coalesced burst-1 row stream, but every staged word
   replays through the 32-bank shared memory at the modelled conflict
   degree. *)
let staged_bandwidth_gbs (d : Device.t) ~split ~bank_conflict =
  d.dram_bandwidth_gbs
  *. Calibration.base_efficiency_row ~burst:1.0
  *. Calibration.split_factor split
  /. float_of_int (max 1 bank_conflict)

let memcpy_time_us (d : Device.t) ~bytes ~dir =
  let bw = match dir with `H2d -> d.pcie_h2d_gbs | `D2h -> d.pcie_d2h_gbs in
  d.memcpy_overhead_us +. (float_of_int bytes /. (bw *. 1e3))

let host_loop_time_us ~ops = ops /. Calibration.host_int_ops_per_us

let host_block_time_us ~ops ~updates =
  host_loop_time_us ~ops
  +. (updates *. Calibration.host_cold_update_ns /. 1e3)
