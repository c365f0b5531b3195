(* The recorded chain events are pure in the scale, so they are
   memoised (lock-check-unlock: the lock is never held while running
   the chain).  Each call returns a *fresh* timeline rebuilt from the
   memoised events because callers mutate their timeline via replay. *)
let events_lock = Mutex.create ()

let events_tbl : (Scale.t, Gpu.Timeline.event list) Hashtbl.t =
  Hashtbl.create 4

let run_once (s : Scale.t) =
  let chain_events () =
    let model =
      Mde.Chain.downscaler_model ~rows:s.Scale.rows ~cols:s.Scale.cols
    in
    let gen = Mde.Chain.transform_exn model in
    let ctx = Opencl.Runtime.create_context ~mode:Gpu.Context.Timing_only () in
    let plane c =
      Ndarray.Tensor.init
        [| s.Scale.rows; s.Scale.cols |]
        (fun idx -> (idx.(0) + (2 * idx.(1)) + c) mod 251)
    in
    ignore
      (Mde.Chain.run ctx gen ~label_of:Mde.Chain.downscaler_label
         ~inputs:
           [ ("r_in", plane 0); ("g_in", plane 1); ("b_in", plane 2) ]);
    Gpu.Timeline.events (Gpu.Context.timeline (Opencl.Runtime.gpu_context ctx))
  in
  Mutex.lock events_lock;
  let hit = Hashtbl.find_opt events_tbl s in
  Mutex.unlock events_lock;
  let events =
    match hit with
    | Some evs -> evs
    | None ->
        let evs = chain_events () in
        Mutex.lock events_lock;
        if not (Hashtbl.mem events_tbl s) then Hashtbl.add events_tbl s evs;
        Mutex.unlock events_lock;
        evs
  in
  let timeline = Gpu.Timeline.create () in
  List.iter (Gpu.Timeline.record timeline) events;
  timeline

let profile s =
  let timeline = run_once s in
  Gpu.Timeline.replay timeline ~times:s.Scale.frames;
  Gpu.Trace_export.register
    ~name:(Printf.sprintf "gaspard-opencl %dx%d" s.Scale.rows s.Scale.cols)
    timeline;
  Gpu.Profiler.rows timeline

let filter_us s which =
  let label = match which with `H -> "H. Filter" | `V -> "V. Filter" in
  let timeline = run_once s in
  let per_frame =
    List.fold_left
      (fun acc (e : Gpu.Timeline.event) ->
        if e.Gpu.Timeline.kind = Gpu.Timeline.Kernel
           && e.Gpu.Timeline.label = label
        then acc +. e.Gpu.Timeline.us
        else acc)
      0.0
      (Gpu.Timeline.events timeline)
  in
  per_frame *. float_of_int s.Scale.frames

let total_us s = Gpu.Profiler.total_us (profile s)
