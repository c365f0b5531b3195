type variant = Seq_generic | Seq_nongeneric | Cuda_generic | Cuda_nongeneric

type filter = H | V

let variant_name = function
  | Seq_generic -> "SAC-Seq Generic"
  | Seq_nongeneric -> "SAC-Seq Non-Generic"
  | Cuda_generic -> "SAC-CUDA Generic"
  | Cuda_nongeneric -> "SAC-CUDA Non-Generic"

(* The vertical filter operates on the horizontal filter's output
   geometry (1080x720 for HD input), as in the paper's pipeline. *)
let filter_geometry filter (s : Scale.t) =
  match filter with
  | H -> (s.Scale.rows, s.Scale.cols)
  | V -> (s.Scale.rows, Scale.h_out_cols s)

let source_of ~generic filter (s : Scale.t) =
  let rows, cols = filter_geometry filter s in
  match filter with
  | H -> Sac.Programs.horizontal ~generic ~rows ~cols
  | V -> Sac.Programs.vertical ~generic ~rows ~cols

(* Memoisation with the lock-check-unlock pattern: the lock is never
   held while computing, so a memoised computation is free to run pool
   work itself; a racing duplicate computation is harmless because
   every memoised function is pure in its key. *)
let memo_lock = Mutex.create ()

let memo tbl key compute =
  Mutex.lock memo_lock;
  let hit = Hashtbl.find_opt tbl key in
  Mutex.unlock memo_lock;
  match hit with
  | Some v -> v
  | None ->
      let v = compute () in
      Mutex.lock memo_lock;
      if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v;
      Mutex.unlock memo_lock;
      v

(* A geometry-compatible reduced plane for operation counting: the
   per-pixel work of both filters is constant, so counts scale exactly
   with the pixel count. *)
let counting_scale (s : Scale.t) =
  if Scale.pixels s <= Scale.pixels Scale.validation then s
  else { s with Scale.rows = 72; cols = 64 }

let dummy_plane_of_geometry (rows, cols) =
  Ndarray.Tensor.init [| rows; cols |] (fun idx ->
      (idx.(0) + (2 * idx.(1))) mod 251)

let dummy_plane filter (s : Scale.t) =
  dummy_plane_of_geometry (filter_geometry filter s)

let seq_ops_tbl : (bool * filter * Scale.t, float) Hashtbl.t =
  Hashtbl.create 16

let seq_ops_per_plane ~generic filter (s : Scale.t) =
  memo seq_ops_tbl (generic, filter, s) (fun () ->
      let small = counting_scale s in
      let src = source_of ~generic filter small in
      let fd, _ = Sac.Pipeline.optimize_source src ~entry:"main" in
      Sac.Interp.reset_ops ();
      ignore
        (Sac.Interp.run [ fd ] ~entry:"main"
           ~args:[ Sac.Value.Varr (dummy_plane filter small) ]);
      let ops_small = float_of_int (Sac.Interp.ops ()) in
      let pixels scale =
        let r, c = filter_geometry filter scale in
        r * c
      in
      ops_small *. (float_of_int (pixels s) /. float_of_int (pixels small)))

let seq_us ~generic filter (s : Scale.t) =
  let per_plane = seq_ops_per_plane ~generic filter s in
  Gpu.Perf_model.host_loop_time_us ~ops:per_plane
  *. float_of_int Scale.planes
  *. float_of_int s.Scale.frames

(* Run a compiled plan once in timing-only mode; classify the events. *)
let cuda_events ~generic filter (s : Scale.t) =
  let src = source_of ~generic filter s in
  let plan, _ = Sac_cuda.Compile.plan_of_source src ~entry:"main" in
  let ctx = Gpu.Context.create ~mode:Gpu.Context.Timing_only () in
  let outcome =
    Sac_cuda.Exec.run ~host_mode:`Estimate ctx plan
      ~args:[ ("frame", dummy_plane filter s) ]
  in
  let events = Gpu.Timeline.events (Gpu.Context.timeline ctx) in
  (plan, events, outcome.Sac_cuda.Exec.host_us)

(* Filter time: kernels + transfers *internal* to the filter (e.g. the
   generic variant's intermediate download) + host tiler time; the
   frame upload and result download are common to every variant and
   belong to the end-to-end profile (Table II), not the per-filter
   comparison of Figure 9. *)
let cuda_us_tbl : (bool * filter * Scale.t, float) Hashtbl.t =
  Hashtbl.create 16

let cuda_us ~generic filter (s : Scale.t) =
  memo cuda_us_tbl (generic, filter, s) @@ fun () ->
  let plan, events, host_us = cuda_events ~generic filter s in
  let result_buffer = Sac_cuda.Kernelize.sanitize plan.Sac_cuda.Plan.result in
  let device_us =
    List.fold_left
      (fun acc (e : Gpu.Timeline.event) ->
        match e.Gpu.Timeline.kind with
        | Gpu.Timeline.Kernel -> acc +. e.Gpu.Timeline.us
        | Gpu.Timeline.Memcpy_h2d ->
            if e.Gpu.Timeline.detail = "frame" then acc
            else acc +. e.Gpu.Timeline.us
        | Gpu.Timeline.Memcpy_d2h ->
            if e.Gpu.Timeline.detail = result_buffer then acc
            else acc +. e.Gpu.Timeline.us
        | Gpu.Timeline.Memcpy_d2d -> acc +. e.Gpu.Timeline.us)
      0.0 events
  in
  (device_us +. host_us)
  *. float_of_int Scale.planes
  *. float_of_int s.Scale.frames

let time_us variant filter s =
  match variant with
  | Seq_generic -> seq_us ~generic:true filter s
  | Seq_nongeneric -> seq_us ~generic:false filter s
  | Cuda_generic -> cuda_us ~generic:true filter s
  | Cuda_nongeneric -> cuda_us ~generic:false filter s

let full_pipeline_profile ~generic (s : Scale.t) =
  let src =
    Sac.Programs.downscaler ~generic ~rows:s.Scale.rows ~cols:s.Scale.cols
  in
  let plan, _ =
    Sac_cuda.Compile.plan_of_source
      ~label_of:(Sac.Programs.downscaler_labels ())
      src ~entry:"main"
  in
  let plane = dummy_plane H s in
  (* The three colour planes are independent: each runs against its own
     timing-only runtime on the pool, and the per-plane timelines are
     appended in r,g,b order, so the merged timeline (and hence every
     profiler row) is identical to a sequential run. *)
  let per_plane =
    Gpu.Pool.map_list (Gpu.Pool.get ())
      (List.map
         (fun tag () ->
           let ctx = Gpu.Context.create ~mode:Gpu.Context.Timing_only () in
           let outcome =
             Sac_cuda.Exec.run ~host_mode:`Estimate ~plane_tag:tag ctx plan
               ~args:[ ("frame", plane) ]
           in
           (Gpu.Context.timeline ctx, outcome.Sac_cuda.Exec.host_us))
         [ "r"; "g"; "b" ])
  in
  let timeline = Gpu.Timeline.create () in
  List.iter (fun (tl, _) -> Gpu.Timeline.append timeline tl) per_plane;
  let host = List.fold_left (fun acc (_, h) -> acc +. h) 0.0 per_plane in
  Gpu.Timeline.replay timeline ~times:s.Scale.frames;
  Gpu.Trace_export.register
    ~name:
      (Printf.sprintf "sac-cuda %s %dx%d"
         (if generic then "generic" else "non-generic")
         s.Scale.rows s.Scale.cols)
    timeline;
  (Gpu.Profiler.rows timeline, host *. float_of_int s.Scale.frames)
