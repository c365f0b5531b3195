type pipeline = Sac | Mde

type key = {
  k_pipeline : [ `Sac | `Mde | `Custom of int ];
  k_rows : int;
  k_cols : int;
  k_opt : Optimizer.Mode.t;
}

type runner =
  | Sac_plan of Sac_cuda.Plan.t
  | Mde_gen of Mde.Codegen.generated
  | Custom_fn of (Video.Frame.t -> Video.Frame.t)

type t = {
  id : int;
  fmt : Video.Format.t;
  opt : Optimizer.Mode.t;
  key : key;
  runner : runner;
}

let id t = t.id

let format t = t.fmt

let opt t = t.opt

let key t = t.key

let pipeline_name t =
  match t.key.k_pipeline with
  | `Sac -> "sac"
  | `Mde -> "gaspard"
  | `Custom _ -> "custom"

(* ------------------------------------------------------------------ *)
(* Process-wide plan cache                                             *)
(* ------------------------------------------------------------------ *)

(* The lock covers only the cache table: the optimisation mode travels
   in the key and is passed to the compilers as an argument, so
   concurrent compiles with different modes need no global switch (and
   the compile itself runs without excluding other sessions'
   lookups beyond the table access below). *)
let cache_lock = Mutex.create ()

let cache : (key, runner) Hashtbl.t = Hashtbl.create 8

let m_cache_hits = Obs.Metrics.counter "serve.plan_cache_hits"

let m_cache_misses = Obs.Metrics.counter "serve.plan_cache_misses"

let cache_size () =
  Mutex.lock cache_lock;
  let n = Hashtbl.length cache in
  Mutex.unlock cache_lock;
  n

let compile key =
  match key.k_pipeline with
  | `Custom _ -> assert false (* never cached *)
  | `Sac ->
      let src =
        Sac.Programs.downscaler ~generic:false ~rows:key.k_rows
          ~cols:key.k_cols
      in
      let plan, _ =
        Sac_cuda.Compile.plan_of_source ~label_of:(Sac.Programs.downscaler_labels ())
          ~opt:key.k_opt src ~entry:"main"
      in
      Sac_plan plan
  | `Mde ->
      Mde_gen
        (Mde.Chain.transform_exn ~opt:key.k_opt
           (Mde.Chain.downscaler_model ~rows:key.k_rows ~cols:key.k_cols))

let runner_of key =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) @@ fun () ->
  match Hashtbl.find_opt cache key with
  | Some r ->
      Obs.Metrics.incr m_cache_hits;
      r
  | None ->
      Obs.Metrics.incr m_cache_misses;
      let r =
        Obs.Tracer.with_span ~cat:"serve" "serve.compile_plan" (fun () ->
            compile key)
      in
      Hashtbl.add cache key r;
      r

let create ?opt ~id ~pipeline fmt =
  if fmt.Video.Format.rows mod 9 <> 0 || fmt.Video.Format.cols mod 8 <> 0 then
    invalid_arg
      (Printf.sprintf
         "Serve.Session.create: %dx%d is not downscalable (rows must be a \
          multiple of 9, cols of 8)"
         fmt.Video.Format.rows fmt.Video.Format.cols);
  let opt = match opt with Some m -> m | None -> Optimizer.Mode.default () in
  let key =
    {
      k_pipeline = (match pipeline with Sac -> `Sac | Mde -> `Mde);
      k_rows = fmt.Video.Format.rows;
      k_cols = fmt.Video.Format.cols;
      k_opt = opt;
    }
  in
  { id; fmt; opt; key; runner = runner_of key }

let custom ~id fmt f =
  {
    id;
    fmt;
    opt = Optimizer.Mode.Off;
    key =
      {
        k_pipeline = `Custom id;
        k_rows = fmt.Video.Format.rows;
        k_cols = fmt.Video.Format.cols;
        k_opt = Optimizer.Mode.Off;
      };
    runner = Custom_fn f;
  }

(* ------------------------------------------------------------------ *)
(* Multi-device serving                                                 *)
(* ------------------------------------------------------------------ *)

(* With [set_devices n] (n > 1) every stream gets a device affinity
   from the residency-aware scheduler: the first frame pins the stream
   to the least-loaded device and later frames stay there unless the
   imbalance exceeds the migration cost of the stream's working set
   (counted as [serve.migrations]).  The lock covers the scheduler
   only; frame execution itself stays fully parallel. *)
let sched_lock = Mutex.create ()

let cluster_ref : (Gpu.Topology.t * Gpu.Sched.t) option ref = ref None

let m_migrations = Obs.Metrics.counter "serve.migrations"

let set_devices ?(profile = Gpu.Device.gtx480) n =
  if n < 1 then invalid_arg "Serve.Session.set_devices: count must be positive";
  Mutex.lock sched_lock;
  (if n = 1 then cluster_ref := None
   else
     let topo = Gpu.Topology.uniform ~devices:n profile in
     cluster_ref := Some (topo, Gpu.Sched.create topo));
  Mutex.unlock sched_lock

let device_count () =
  Mutex.lock sched_lock;
  let n =
    match !cluster_ref with
    | None -> 1
    | Some (topo, _) -> Gpu.Topology.device_count topo
  in
  Mutex.unlock sched_lock;
  n

let migrations () = Option.value ~default:0 (Obs.Metrics.find "serve.migrations")

let frame_bytes (fmt : Video.Format.t) =
  3 * 4 * fmt.Video.Format.rows * fmt.Video.Format.cols

(* Load proxy for stream placement, in microseconds so it compares
   coherently with the scheduler's migration-cost estimates: the
   upload time of one frame, which is proportional to the per-request
   device work for a fixed pipeline. *)
let frame_us_estimate topo fmt =
  Gpu.Topology.transfer_time_us topo ~src:Gpu.Topology.Host
    ~dst:(Gpu.Topology.Dev 0) ~bytes:(frame_bytes fmt)

let placement t =
  Mutex.lock sched_lock;
  let p =
    match !cluster_ref with
    | None -> None
    | Some (topo, sched) ->
        let us = frame_us_estimate topo t.fmt in
        let ordinal, migrated =
          Gpu.Sched.stream_device sched
            ~working_set_bytes:(frame_bytes t.fmt)
            ~stream:(string_of_int t.id) ~us
        in
        if migrated then Obs.Metrics.incr m_migrations;
        Some (topo, ordinal)
  in
  Mutex.unlock sched_lock;
  p

(* ------------------------------------------------------------------ *)
(* Frame execution                                                     *)
(* ------------------------------------------------------------------ *)

let run_frame t frame =
  let liveness = Optimizer.Mode.liveness t.opt in
  let affinity = placement t in
  let ordinal = Option.map snd affinity in
  let topology = Option.map fst affinity in
  let on_device run =
    let ctx = Gpu.Context.create ?ordinal ?topology () in
    let scaled = run ctx in
    (scaled, Gpu.Timeline.events (Gpu.Context.timeline ctx))
  in
  match t.runner with
  | Custom_fn f -> (f frame, [])
  | Sac_plan plan ->
      on_device (fun ctx ->
          Video.Frame.map_planes
            (fun ch plane ->
              (Sac_cuda.Exec.run ctx plan ~liveness
                 ~plane_tag:(Video.Frame.channel_name ch)
                 ~args:[ ("frame", plane) ])
                .Sac_cuda.Exec.result)
            frame)
  | Mde_gen gen ->
      on_device (fun ctx ->
          let outs =
            Mde.Chain.run ctx gen ~label_of:Mde.Chain.downscaler_label
              ~liveness
              ~inputs:
                [
                  ("r_in", Video.Frame.plane frame Video.Frame.R);
                  ("g_in", Video.Frame.plane frame Video.Frame.G);
                  ("b_in", Video.Frame.plane frame Video.Frame.B);
                ]
          in
          {
            Video.Frame.r = List.assoc "r_out" outs;
            g = List.assoc "g_out" outs;
            b = List.assoc "b_out" outs;
          })
