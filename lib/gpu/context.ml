type exec_mode = Sequential | Parallel of int | Timing_only

type cache_stats = {
  compiles : int;
  compile_hits : int;
  cost_profiles : int;
  cost_hits : int;
}

(* Per-device mirrors of the process-wide counters, registered lazily
   per ordinal so a single-device run only materialises gpu.dev0.*.
   They let the bench assert that multi-device runs keep their caches
   and traffic separated per device. *)
type dev_metrics = {
  dm_launches : Obs.Metrics.counter;
  dm_compile_hits : Obs.Metrics.counter;
  dm_cost_hits : Obs.Metrics.counter;
  dm_h2d_bytes : Obs.Metrics.counter;
  dm_d2h_bytes : Obs.Metrics.counter;
  dm_p2p_bytes : Obs.Metrics.counter;
  dm_high_water : Obs.Metrics.gauge;
}

type t = {
  spec : Device.t;
  ordinal : int;
  topology : Topology.t;
  dev : dev_metrics;
  timeline : Timeline.t;
  mode : exec_mode;
  mutable allocated : int;
  mutable peak : int;
  mutable next_id : int;
  live : (int, Buffer.t) Hashtbl.t;
  (* Reuse arena: freed backing stores keyed by length, recycled by
     [alloc] instead of growing the heap.  Host programs free every
     buffer at their end (and, under liveness, after its last use), so
     a context's later runs reuse the stores of earlier ones. *)
  arena : (int, int array list) Hashtbl.t;
  (* Per-context kernel caches.  A context belongs to one thread of the
     driver, so these tables need no locking; the process-wide second
     levels in [Kir.shared_prepare] and [global_costs] are what make
     short-lived per-plane/per-frame contexts cheap. *)
  prepared : (Kir.t, Kir.prepared) Hashtbl.t;
  costs : (cost_key, Kir.cost) Hashtbl.t;
  mutable stats : cache_stats;
}

and cost_key = {
  ck_kernel : Kir.t;
  ck_grid : int list;
  ck_scalars : (string * int) list;
  ck_lengths : (string * int) list;  (** buffer arg lengths (bounds checks) *)
}

exception Out_of_memory of string

let no_stats = { compiles = 0; compile_hits = 0; cost_profiles = 0; cost_hits = 0 }

(* Process-wide mirrors of the per-context counters, plus traffic and
   allocation metrics.  Atomic increments only: collection stays on at
   near-zero cost and [--metrics] just renders the registry. *)
let m_launches = Obs.Metrics.counter "gpu.launches"

let m_kernel_us = Obs.Metrics.histogram "gpu.kernel_us"

let m_compiles = Obs.Metrics.counter "gpu.compiles"

let m_compile_hits = Obs.Metrics.counter "gpu.compile_hits"

let m_cost_profiles = Obs.Metrics.counter "gpu.cost_profiles"

let m_cost_hits = Obs.Metrics.counter "gpu.cost_hits"

let m_h2d_copies = Obs.Metrics.counter "gpu.h2d_copies"

let m_h2d_bytes = Obs.Metrics.counter "gpu.h2d_bytes"

let m_d2h_copies = Obs.Metrics.counter "gpu.d2h_copies"

let m_d2h_bytes = Obs.Metrics.counter "gpu.d2h_bytes"

let m_alloc_bytes = Obs.Metrics.counter "gpu.alloc_bytes"

let m_alloc_high_water = Obs.Metrics.gauge "gpu.alloc_high_water_bytes"

let m_buffers_reused = Obs.Metrics.counter "fusion.buffers_reused"

(* The mode new contexts start in when [create] gets no explicit
   [?mode]; the CLI --domains flag raises it to [Parallel n] so every
   functional execution in the process lands on the domain pool. *)
let default_mode_ref = ref Sequential

let set_default_mode m = default_mode_ref := m

let dev_metrics_of ordinal =
  let name suffix = Printf.sprintf "gpu.dev%d.%s" ordinal suffix in
  {
    dm_launches = Obs.Metrics.counter (name "launches");
    dm_compile_hits = Obs.Metrics.counter (name "compile_hits");
    dm_cost_hits = Obs.Metrics.counter (name "cost_hits");
    dm_h2d_bytes = Obs.Metrics.counter (name "h2d_bytes");
    dm_d2h_bytes = Obs.Metrics.counter (name "d2h_bytes");
    dm_p2p_bytes = Obs.Metrics.counter (name "p2p_bytes");
    dm_high_water = Obs.Metrics.gauge (name "alloc_high_water_bytes");
  }

let create ?mode ?(ordinal = 0) ?topology ?device () =
  let topology =
    match topology with
    | Some t -> t
    | None -> Topology.single (Option.value device ~default:Device.gtx480)
  in
  if ordinal < 0 || ordinal >= Topology.device_count topology then
    invalid_arg
      (Printf.sprintf "Context.create: ordinal %d outside topology (%d devices)"
         ordinal
         (Topology.device_count topology));
  let spec =
    match device with Some d -> d | None -> Topology.device topology ordinal
  in
  {
    spec;
    ordinal;
    topology;
    dev = dev_metrics_of ordinal;
    timeline = Timeline.create ();
    mode = (match mode with Some m -> m | None -> !default_mode_ref);
    allocated = 0;
    peak = 0;
    next_id = 0;
    live = Hashtbl.create 16;
    arena = Hashtbl.create 8;
    prepared = Hashtbl.create 16;
    costs = Hashtbl.create 16;
    stats = no_stats;
  }

let timeline t = t.timeline

let peak_bytes t = t.peak

let cache_stats t = t.stats

let alloc t ~name len =
  if len < 0 then invalid_arg "Context.alloc";
  let bytes = 4 * len in
  let budget = t.spec.device_mem_mb * 1024 * 1024 in
  if t.allocated + bytes > budget then
    raise
      (Out_of_memory
         (Printf.sprintf
            "allocating %d B for %s exceeds device memory (%d B in use of %d)"
            bytes name t.allocated budget));
  let data =
    match Hashtbl.find_opt t.arena len with
    | Some (a :: rest) ->
        Hashtbl.replace t.arena len rest;
        Array.fill a 0 (Array.length a) 0;
        Obs.Metrics.incr m_buffers_reused;
        a
    | Some [] | None -> (
        (* Timing-only runs price sizes, never contents. *)
        match t.mode with Timing_only -> [||] | _ -> Array.make len 0)
  in
  let buf = { Buffer.id = t.next_id; name; len; data } in
  t.next_id <- t.next_id + 1;
  t.allocated <- t.allocated + bytes;
  if t.allocated > t.peak then t.peak <- t.allocated;
  Obs.Metrics.add m_alloc_bytes bytes;
  Obs.Metrics.set_max m_alloc_high_water t.allocated;
  Obs.Metrics.set_max t.dev.dm_high_water t.allocated;
  Hashtbl.add t.live buf.Buffer.id buf;
  buf

(* At most this many freed stores are retained per buffer length; the
   H.263 plans cycle through a handful of shapes, so a short shelf
   catches every reuse without hoarding the heap. *)
let arena_depth = 4

let free t (buf : Buffer.t) =
  if not (Hashtbl.mem t.live buf.Buffer.id) then
    invalid_arg
      (Printf.sprintf "Context.free: %s (id %d) is not live (double free?)"
         buf.Buffer.name buf.Buffer.id);
  Hashtbl.remove t.live buf.Buffer.id;
  t.allocated <- t.allocated - Buffer.bytes buf;
  let len = Buffer.length buf in
  let shelf =
    match Hashtbl.find_opt t.arena len with Some l -> l | None -> []
  in
  if List.length shelf < arena_depth then
    Hashtbl.replace t.arena len (buf.Buffer.data :: shelf)

(* All transfer accounting goes through the topology.  For the host
   links the routed time is bit-identical to the historical direct
   [Perf_model.memcpy_time_us] charge (the links are built from the
   same device fields, and the time expression is the same). *)
let copy_event t kind label detail bytes =
  let src, dst =
    match kind with
    | Timeline.Memcpy_h2d -> (Topology.Host, Topology.Dev t.ordinal)
    | Timeline.Memcpy_d2h -> (Topology.Dev t.ordinal, Topology.Host)
    | Timeline.Memcpy_d2d | Timeline.Kernel ->
        invalid_arg "Context.copy_event: host-link copies only"
  in
  (match kind with
  | Timeline.Memcpy_h2d ->
      Obs.Metrics.incr m_h2d_copies;
      Obs.Metrics.add m_h2d_bytes bytes;
      Obs.Metrics.add t.dev.dm_h2d_bytes bytes
  | _ ->
      Obs.Metrics.incr m_d2h_copies;
      Obs.Metrics.add m_d2h_bytes bytes;
      Obs.Metrics.add t.dev.dm_d2h_bytes bytes);
  Timeline.record t.timeline
    {
      Timeline.label;
      detail;
      kind;
      us = Topology.transfer_time_us t.topology ~src ~dst ~bytes;
      start_us = 0.0;
      bytes;
      threads = 0;
    }

let m_p2p_copies = Obs.Metrics.counter "gpu.p2p_copies"

let m_p2p_bytes = Obs.Metrics.counter "gpu.p2p_bytes"

let record_d2d ?(label = "memcpyPeerAsync") t ~detail ~src ~bytes =
  if src = t.ordinal then invalid_arg "Context.record_d2d: same device";
  let us =
    Topology.transfer_time_us t.topology ~src:(Topology.Dev src)
      ~dst:(Topology.Dev t.ordinal) ~bytes
  in
  Obs.Metrics.incr m_p2p_copies;
  Obs.Metrics.add m_p2p_bytes bytes;
  Obs.Metrics.add t.dev.dm_p2p_bytes bytes;
  Timeline.record t.timeline
    {
      Timeline.label;
      detail;
      kind = Timeline.Memcpy_d2d;
      us;
      start_us = 0.0;
      bytes;
      threads = 0;
    }

let h2d ?(label = "memcpyHtoDasync") t (buf : Buffer.t) src =
  if Array.length src <> Buffer.length buf then
    invalid_arg "Context.h2d: length mismatch";
  if Buffer.stored buf then
    Array.blit src 0 buf.Buffer.data 0 (Array.length src);
  copy_event t Timeline.Memcpy_h2d label buf.Buffer.name (4 * Array.length src)

let d2h ?(label = "memcpyDtoHasync") t (buf : Buffer.t) dst =
  if Array.length dst <> Buffer.length buf then
    invalid_arg "Context.d2h: length mismatch";
  if Buffer.stored buf then Array.blit buf.Buffer.data 0 dst 0 (Array.length dst)
  else Array.fill dst 0 (Array.length dst) 0;
  copy_event t Timeline.Memcpy_d2h label buf.Buffer.name (4 * Array.length dst)

(* ------------------------------------------------------------------ *)
(* Kernel caches                                                       *)
(* ------------------------------------------------------------------ *)

let prepared_of t kernel =
  match Hashtbl.find_opt t.prepared kernel with
  | Some p ->
      t.stats <- { t.stats with compile_hits = t.stats.compile_hits + 1 };
      Obs.Metrics.incr m_compile_hits;
      Obs.Metrics.incr t.dev.dm_compile_hits;
      p
  | None ->
      let t0 = Obs.Tracer.start () in
      let p, shared_hit = Kir.shared_prepare_memo kernel in
      Obs.Tracer.finish ~cat:"gpu" "kernel.prepare" t0;
      Hashtbl.add t.prepared kernel p;
      (* A hit in the process-wide memo is still a hit, even though this
         context saw the kernel for the first time — short-lived per-frame
         contexts would otherwise report thousands of "compiles" for work
         the shared table did once. *)
      if shared_hit then begin
        t.stats <- { t.stats with compile_hits = t.stats.compile_hits + 1 };
        Obs.Metrics.incr m_compile_hits;
        Obs.Metrics.incr t.dev.dm_compile_hits
      end
      else begin
        t.stats <- { t.stats with compiles = t.stats.compiles + 1 };
        Obs.Metrics.incr m_compiles
      end;
      p

let global_costs_lock = Mutex.create ()

let global_costs : (cost_key, Kir.cost) Hashtbl.t = Hashtbl.create 64

let cost_key_of kernel ~grid ~args =
  {
    ck_kernel = kernel;
    ck_grid = Array.to_list grid;
    ck_scalars =
      List.filter_map
        (function n, Kir.Scalar_arg v -> Some (n, v) | _ -> None)
        args;
    ck_lengths =
      List.filter_map
        (function
          | n, Kir.Buffer_arg b -> Some (n, Buffer.length b) | _ -> None)
        args;
  }

let m_cost_static = Obs.Metrics.counter "gpu.cost_static"

let profile_with_span kernel ~args ~grid =
  let t0 = Obs.Tracer.start () in
  let c = Kir.profile_threads kernel ~args ~grid in
  Obs.Tracer.finish ~cat:"gpu" "kernel.cost_profile" t0;
  c

(* Data-independent kernels get their cost derived statically: the
   numbers of a profile (the same evaluator, with opaque loads), plus
   the access summary the perf model and the linter consume.  Kernels
   the static route cannot decide are profiled with the launch's
   data. *)
let derive_cost kernel ~args ~grid =
  let scalars =
    List.filter_map
      (function n, Kir.Scalar_arg v -> Some (n, v) | _ -> None)
      args
  in
  let t0 = Obs.Tracer.start () in
  match Kir.static_cost ~scalars kernel ~grid with
  | Ok c ->
      Obs.Tracer.finish ~cat:"gpu" "kernel.cost_static" t0;
      Obs.Metrics.incr m_cost_static;
      c
  | Error _ -> profile_with_span kernel ~args ~grid

let cost_of t kernel ~grid ~args =
  if not (Kir.cost_data_independent kernel) then
    profile_with_span kernel ~args ~grid
  else begin
    let key = cost_key_of kernel ~grid ~args in
    match Hashtbl.find_opt t.costs key with
    | Some c ->
        t.stats <- { t.stats with cost_hits = t.stats.cost_hits + 1 };
        Obs.Metrics.incr m_cost_hits;
        Obs.Metrics.incr t.dev.dm_cost_hits;
        c
    | None ->
        let c, global_hit =
          Mutex.lock global_costs_lock;
          let cached = Hashtbl.find_opt global_costs key in
          Mutex.unlock global_costs_lock;
          match cached with
          | Some c -> (c, true)
          | None ->
              (* Derived outside the lock: the derivation is pure for
                 data-independent kernels, so a racing duplicate just
                 recomputes the same value. *)
              let c = derive_cost kernel ~args ~grid in
              Mutex.lock global_costs_lock;
              if not (Hashtbl.mem global_costs key) then
                Hashtbl.add global_costs key c;
              Mutex.unlock global_costs_lock;
              (c, false)
        in
        Hashtbl.add t.costs key c;
        (* Same attribution rule as [prepared_of]: the process-wide
           table answering counts as a hit for fresh contexts too. *)
        if global_hit then begin
          t.stats <- { t.stats with cost_hits = t.stats.cost_hits + 1 };
          Obs.Metrics.incr m_cost_hits;
          Obs.Metrics.incr t.dev.dm_cost_hits
        end
        else begin
          t.stats <-
            { t.stats with cost_profiles = t.stats.cost_profiles + 1 };
          Obs.Metrics.incr m_cost_profiles
        end;
        c
  end

let launch ?label ?(split = 1) t kernel ~grid ~args =
  let label = Option.value label ~default:kernel.Kir.kname in
  if Ndarray.Shape.rank grid <> kernel.Kir.grid_rank then
    invalid_arg
      (Printf.sprintf "Context.launch %s: grid rank %d <> kernel rank %d"
         kernel.Kir.kname (Ndarray.Shape.rank grid) kernel.Kir.grid_rank);
  let threads = Ndarray.Shape.size grid in
  let cost = cost_of t kernel ~grid ~args in
  let t0 = Obs.Tracer.start () in
  (match t.mode with
  | Sequential -> Kir.run_grid (Kir.bind (prepared_of t kernel) ~args) grid
  | Parallel domains ->
      Kir.run_grid ~domains (Kir.bind (prepared_of t kernel) ~args) grid
  | Timing_only -> ());
  Obs.Tracer.finish ~cat:"gpu" label t0;
  let us = Perf_model.kernel_time_us t.spec ~threads ~cost ~split in
  let bytes =
    int_of_float
      (float_of_int threads
      *. (cost.Kir.reads_per_thread +. cost.Kir.writes_per_thread)
      *. 4.0)
  in
  Obs.Metrics.incr m_launches;
  Obs.Metrics.incr t.dev.dm_launches;
  Obs.Metrics.observe m_kernel_us (int_of_float us);
  Timeline.record t.timeline
    { Timeline.label; detail = kernel.Kir.kname; kind = Timeline.Kernel; us;
      start_us = 0.0; bytes; threads }

let elapsed_us t = Timeline.total_us t.timeline

let reset t =
  Timeline.clear t.timeline;
  t.stats <- no_stats;
  (* Back-to-back runs in one process must not inherit the previous
     run's recycled backing stores or its memory high-water mark. *)
  Hashtbl.reset t.arena;
  t.peak <- t.allocated
