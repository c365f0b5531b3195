open Ndarray

type fig9_row = {
  variant : Sac_runs.variant;
  h_seconds : float;
  v_seconds : float;
}

let fig9 ?(scale = Scale.paper) () =
  Obs.Tracer.with_span ~cat:"study" "study.fig9" @@ fun () ->
  let variants =
    [
      Sac_runs.Seq_generic;
      Sac_runs.Seq_nongeneric;
      Sac_runs.Cuda_generic;
      Sac_runs.Cuda_nongeneric;
    ]
  in
  (* All eight (variant, filter) measurements are independent; run them
     on the pool and reassemble rows in variant order. *)
  let times =
    Gpu.Pool.map_list (Gpu.Pool.get ())
      (List.concat_map
         (fun variant ->
           [
             (fun () -> Sac_runs.time_us variant Sac_runs.H scale);
             (fun () -> Sac_runs.time_us variant Sac_runs.V scale);
           ])
         variants)
  in
  let rec rows vs ts =
    match (vs, ts) with
    | [], [] -> []
    | v :: vs, h :: vt :: ts ->
        { variant = v; h_seconds = h /. 1e6; v_seconds = vt /. 1e6 }
        :: rows vs ts
    | _ -> assert false
  in
  rows variants times

let table1 ?(scale = Scale.paper) () =
  Obs.Tracer.with_span ~cat:"study" "study.table1" (fun () ->
      Gaspard_runs.profile scale)

let table2 ?(scale = Scale.paper) () =
  Obs.Tracer.with_span ~cat:"study" "study.table2" (fun () ->
      fst (Sac_runs.full_pipeline_profile ~generic:false scale))

type fig12_row = {
  operation : string;
  sac_seconds : float;
  gaspard_seconds : float;
}

let row_time rows prefix =
  List.fold_left
    (fun acc (r : Gpu.Profiler.row) ->
      let p = String.length prefix in
      if
        String.length r.Gpu.Profiler.operation >= p
        && String.sub r.Gpu.Profiler.operation 0 p = prefix
      then acc +. r.Gpu.Profiler.gpu_time_us
      else acc)
    0.0 rows

let fig12 ?(scale = Scale.paper) () =
  Obs.Tracer.with_span ~cat:"study" "study.fig12" @@ fun () ->
  let sac = table2 ~scale () in
  let gaspard = table1 ~scale () in
  List.map
    (fun (operation, prefix) ->
      {
        operation;
        sac_seconds = row_time sac prefix /. 1e6;
        gaspard_seconds = row_time gaspard prefix /. 1e6;
      })
    [
      ("Horizontal Filter", "H. Filter");
      ("Vertical Filter", "V. Filter");
      ("Host2Device", "memcpyHtoDasync");
      ("Device2Host", "memcpyDtoHasync");
    ]

let fig8 ?(scale = Scale.paper) () =
  Obs.Tracer.with_span ~cat:"study" "study.fig8" @@ fun () ->
  let src =
    Sac.Programs.horizontal ~generic:false ~rows:scale.Scale.rows
      ~cols:scale.Scale.cols
  in
  let fd, _ = Sac.Pipeline.optimize_source src ~entry:"main" in
  let senv =
    ref
      (List.filter_map
         (fun (t, n) -> Option.map (fun s -> (n, s)) (Sac.Shapes.of_typ t))
         fd.Sac.Ast.params)
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun stmt ->
      (match stmt with
      | Sac.Ast.Assign (_, Sac.Ast.With w) ->
          let sw =
            Sac.Split_gens.normalize (Sac.Scalarize.with_loop !senv w)
          in
          Buffer.add_string buf
            (Printf.sprintf
               "int[%d, %d] in_frame;\nint[%d, %d] output;\noutput = with {\n"
               scale.Scale.rows scale.Scale.cols scale.Scale.rows
               (Scale.h_out_cols scale));
          List.iter
            (fun (g : Sac.Scalarize.sgen) ->
              let space = g.Sac.Scalarize.space in
              Buffer.add_string buf
                (Printf.sprintf
                   "    ( %s <= iv < %s step %s width %s {\n\
                   \        res = ...in_frame[...]...;\n\
                   \    } : res;\n"
                   (Index.to_string space.Sac.Genspace.lb)
                   (Index.to_string space.Sac.Genspace.ub)
                   (Index.to_string space.Sac.Genspace.step)
                   (Index.to_string space.Sac.Genspace.width)))
            sw.Sac.Scalarize.sgens;
          Buffer.add_string buf
            (Printf.sprintf "} : genarray( [%d, %d]);\n" scale.Scale.rows
               (Scale.h_out_cols scale))
      | _ -> ());
      senv := Sac.Shapes.after_stmt !senv stmt)
    fd.Sac.Ast.body;
  Buffer.contents buf

type claims = {
  gaspard_total_s : float;
  sac_total_s : float;
  relative : float;
  within_85_pct : bool;
  seq_seconds : float;
  best_gpu_kernel_seconds : float;
  speedup : float;
  realtime_ok : bool;
}

let claims ?(scale = Scale.paper) () =
  Obs.Tracer.with_span ~cat:"study" "study.claims" @@ fun () ->
  let sac_rows = table2 ~scale () in
  let gaspard_rows = table1 ~scale () in
  let sac_total_s = Gpu.Profiler.total_us sac_rows /. 1e6 in
  let gaspard_total_s = Gpu.Profiler.total_us gaspard_rows /. 1e6 in
  let relative =
    Float.min sac_total_s gaspard_total_s
    /. Float.max sac_total_s gaspard_total_s
  in
  let seq_us =
    Sac_runs.seq_us ~generic:false Sac_runs.H scale
    +. Sac_runs.seq_us ~generic:false Sac_runs.V scale
  in
  let kernel_time rows =
    (row_time rows "H. Filter" +. row_time rows "V. Filter") /. 1e6
  in
  let best_gpu_kernel_seconds =
    Float.min (kernel_time sac_rows) (kernel_time gaspard_rows)
  in
  (* "As much as 11x": the best single-filter ratio between a sequential
     implementation and the fastest GPU kernels for that filter. *)
  let best_case_speedup =
    List.fold_left Float.max 0.0
      (List.concat_map
         (fun filter ->
           let gpu_us =
             Float.min
               (Gaspard_runs.filter_us scale
                  (match filter with Sac_runs.H -> `H | Sac_runs.V -> `V))
               (row_time sac_rows
                  (match filter with
                  | Sac_runs.H -> "H. Filter"
                  | Sac_runs.V -> "V. Filter"))
           in
           List.map
             (fun generic -> Sac_runs.seq_us ~generic filter scale /. gpu_us)
             [ true; false ])
         [ Sac_runs.H; Sac_runs.V ])
  in
  {
    gaspard_total_s;
    sac_total_s;
    relative;
    within_85_pct = relative >= 0.85 -. 0.02;
    seq_seconds = seq_us /. 1e6;
    best_gpu_kernel_seconds;
    speedup = best_case_speedup;
    realtime_ok =
      (* 300 frames at 25 fps last 12 s (Section VIII-B). *)
      gaspard_total_s < float_of_int scale.Scale.frames /. 25.0;
  }

type scenario = {
  description : string;
  gaspard_s : float;
  sac_s : float;
  budget_s : float;
  both_realtime : bool;
}

let cif_scenario () =
  Obs.Tracer.with_span ~cat:"study" "study.cif_scenario" @@ fun () ->
  let scale = { Scale.rows = 288; cols = 352; frames = 2000 } in
  let gaspard_s = Gaspard_runs.total_us scale /. 1e6 in
  let sac_s =
    Gpu.Profiler.total_us (fst (Sac_runs.full_pipeline_profile ~generic:false scale))
    /. 1e6
  in
  let budget_s = float_of_int scale.Scale.frames /. 25.0 in
  {
    description = "CIF 288x352, 2000 frames (80 s of 25 fps video)";
    gaspard_s;
    sac_s;
    budget_s;
    both_realtime = gaspard_s < budget_s && sac_s < budget_s;
  }

(* ------------------------------------------------------------------ *)
(* Cross-pipeline validation                                           *)
(* ------------------------------------------------------------------ *)

type validation = { name : string; ok : bool }

let validate ?(scale = Scale.validation) () =
  Obs.Tracer.with_span ~cat:"study" "study.validate" @@ fun () ->
  let rows = scale.Scale.rows and cols = scale.Scale.cols in
  let fmt = { Video.Format.name = "validation"; rows; cols } in
  let frame = Video.Framegen.frame fmt 0 in
  let plane = Video.Frame.plane frame Video.Frame.R in
  let reference = Video.Downscaler.plane plane in
  let tensor_eq = Tensor.equal Int.equal in
  (* The seven cross-checks are independent functional executions; run
     them on the pool, keeping the report in declaration order. *)
  let checks = ref [] in
  let check name f = checks := (name, f) :: !checks in
  check "SAC interpreter (generic) = reference" (fun () ->
        let src = Sac.Programs.downscaler ~generic:true ~rows ~cols in
        Sac.Value.equal
          (Sac.Interp.run (Sac.Parser.program src) ~entry:"main"
             ~args:[ Sac.Value.Varr plane ])
          (Sac.Value.Varr reference));
    check "SAC interpreter (non-generic) = reference" (fun () ->
        let src = Sac.Programs.downscaler ~generic:false ~rows ~cols in
        Sac.Value.equal
          (Sac.Interp.run (Sac.Parser.program src) ~entry:"main"
             ~args:[ Sac.Value.Varr plane ])
          (Sac.Value.Varr reference));
    check "optimised SAC (WLF) = reference" (fun () ->
        let src = Sac.Programs.downscaler ~generic:false ~rows ~cols in
        let fd, report = Sac.Pipeline.optimize_source src ~entry:"main" in
        report.Sac.Pipeline.withloops_after = 2
        && Sac.Value.equal
             (Sac.Interp.run [ fd ] ~entry:"main"
                ~args:[ Sac.Value.Varr plane ])
             (Sac.Value.Varr reference));
    check "SAC-CUDA plan (non-generic) = reference" (fun () ->
        let src = Sac.Programs.downscaler ~generic:false ~rows ~cols in
        let plan, _ = Sac_cuda.Compile.plan_of_source src ~entry:"main" in
        let ctx = Gpu.Context.create () in
        let outcome = Sac_cuda.Exec.run ctx plan ~args:[ ("frame", plane) ] in
        tensor_eq outcome.Sac_cuda.Exec.result reference);
    check "SAC-CUDA plan (generic) = reference" (fun () ->
        let src = Sac.Programs.downscaler ~generic:true ~rows ~cols in
        let plan, _ = Sac_cuda.Compile.plan_of_source src ~entry:"main" in
        let ctx = Gpu.Context.create () in
        let outcome = Sac_cuda.Exec.run ctx plan ~args:[ ("frame", plane) ] in
        tensor_eq outcome.Sac_cuda.Exec.result reference);
    check "ArrayOL semantics = reference" (fun () ->
        tensor_eq
          (Arrayol.Semantics.run1
             (Arrayol.Downscaler_model.plane ~rows ~cols)
             plane)
          reference);
    check "Gaspard2 OpenCL chain = reference" (fun () ->
        let gen =
          Mde.Chain.transform_exn (Mde.Chain.downscaler_model ~rows ~cols)
        in
        let ctx = Gpu.Context.create () in
        let outs =
          Mde.Chain.run ctx gen
            ~inputs:
              [
                ("r_in", Video.Frame.plane frame Video.Frame.R);
                ("g_in", Video.Frame.plane frame Video.Frame.G);
                ("b_in", Video.Frame.plane frame Video.Frame.B);
              ]
        in
        let expected = Video.Downscaler.frame frame in
        List.for_all
          (fun (port, ch) ->
            tensor_eq (List.assoc port outs) (Video.Frame.plane expected ch))
          [
            ("r_out", Video.Frame.R);
            ("g_out", Video.Frame.G);
            ("b_out", Video.Frame.B);
          ]);
  Gpu.Pool.map_list (Gpu.Pool.get ())
    (List.rev_map
       (fun (name, f) -> fun () -> { name; ok = (try f () with _ -> false) })
       !checks)

(* ------------------------------------------------------------------ *)
(* Kernel fusion (--fuse on vs off)                                    *)
(* ------------------------------------------------------------------ *)

type fusion_row = {
  pipeline : string;
  fused : bool;
  kernels : int;  (** compiled kernels in the plan / task set *)
  launches : int;  (** observed launches for one frame *)
  intermediates : int;  (** device buffers that only feed other kernels *)
  peak_bytes : int;
  modelled_us : float;
  bit_identical : bool;  (** against the golden reference downscaler *)
}

(* Standalone runs on purpose: the memoised Sac_runs/Gaspard_runs
   caches must stay mode-independent, and a fresh runtime per
   configuration gives clean peak-memory and timeline readings.

   The ablation executes functionally (the bit-identity column is the
   point), so scales beyond the validation geometry are clamped to it,
   as in {!Sac_runs.counting_scale}. *)
let fusion ?(scale = Scale.validation) () =
  Obs.Tracer.with_span ~cat:"study" "study.fusion" @@ fun () ->
  let scale =
    if Scale.pixels scale <= Scale.pixels Scale.validation then scale
    else { scale with Scale.rows = 72; cols = 64 }
  in
  let rows = scale.Scale.rows and cols = scale.Scale.cols in
  let fmt = { Video.Format.name = "fusion"; rows; cols } in
  let frame = Video.Framegen.frame fmt 0 in
  let plane = Video.Frame.plane frame Video.Frame.R in
  let reference = Video.Downscaler.plane plane in
  let tensor_eq = Tensor.equal Int.equal in
  let sac fused =
    let opt = if fused then Optimizer.Mode.Fuse else Optimizer.Mode.Off in
    let src = Sac.Programs.downscaler ~generic:false ~rows ~cols in
    let plan, _ = Sac_cuda.Compile.plan_of_source ~opt src ~entry:"main" in
    let ctx = Gpu.Context.create () in
    let outcome =
      Sac_cuda.Exec.run ~liveness:fused ctx plan ~args:[ ("frame", plane) ]
    in
    {
      pipeline = "SAC -> CUDA (non-generic)";
      fused;
      kernels = Sac_cuda.Plan.kernel_count plan;
      launches = outcome.Sac_cuda.Exec.kernel_launches;
      intermediates =
        List.length
          (List.filter
             (function
               | Sac_cuda.Plan.Device_withloop { target; _ } ->
                   target <> plan.Sac_cuda.Plan.result
               | _ -> false)
             plan.Sac_cuda.Plan.items);
      peak_bytes = Gpu.Context.peak_bytes ctx;
      modelled_us = Gpu.Context.elapsed_us ctx;
      bit_identical = tensor_eq outcome.Sac_cuda.Exec.result reference;
    }
  in
  let mde fused =
    let opt = if fused then Optimizer.Mode.Fuse else Optimizer.Mode.Off in
    let gen =
      Mde.Chain.transform_exn ~opt (Mde.Chain.downscaler_model ~rows ~cols)
    in
    let ctx = Gpu.Context.create () in
    let outs =
      Mde.Chain.run ~liveness:fused ctx gen
        ~inputs:
          [
            ("r_in", Video.Frame.plane frame Video.Frame.R);
            ("g_in", Video.Frame.plane frame Video.Frame.G);
            ("b_in", Video.Frame.plane frame Video.Frame.B);
          ]
    in
    let launches =
      List.length
        (List.filter
           (fun (e : Gpu.Timeline.event) ->
             e.Gpu.Timeline.kind = Gpu.Timeline.Kernel)
           (Gpu.Timeline.events (Gpu.Context.timeline ctx)))
    in
    let feeds_boundary inst port =
      List.exists
        (fun (c : Arrayol.Model.connection) ->
          c.Arrayol.Model.cfrom = Arrayol.Model.Part (inst, port)
          &&
          match c.Arrayol.Model.cto with
          | Arrayol.Model.Boundary _ -> true
          | Arrayol.Model.Part _ -> false)
        gen.Mde.Codegen.connections
    in
    let expected = Video.Downscaler.frame frame in
    {
      pipeline = "Gaspard2 -> OpenCL";
      fused;
      kernels = List.length gen.Mde.Codegen.kernel_tasks;
      launches;
      intermediates =
        List.fold_left
          (fun acc (kt : Mde.Codegen.kernel_task) ->
            acc
            + List.length
                (List.filter
                   (fun (port, _) ->
                     not (feeds_boundary kt.Mde.Codegen.instance port))
                   kt.Mde.Codegen.output_ports))
          0 gen.Mde.Codegen.kernel_tasks;
      peak_bytes = Gpu.Context.peak_bytes ctx;
      modelled_us = Gpu.Context.elapsed_us ctx;
      bit_identical =
        List.for_all
          (fun (port, ch) ->
            tensor_eq (List.assoc port outs) (Video.Frame.plane expected ch))
          [
            ("r_out", Video.Frame.R);
            ("g_out", Video.Frame.G);
            ("b_out", Video.Frame.B);
          ];
    }
  in
  [ sac false; sac true; mde false; mde true ]

(* ------------------------------------------------------------------ *)
(* Plan autotuning (--opt off vs fuse vs auto)                         *)
(* ------------------------------------------------------------------ *)

type autotune_row = {
  at_pipeline : string;
  at_rows : int;
  at_cols : int;
  at_off_us : float;  (** modelled frame time, unoptimised plan *)
  at_fuse_us : float;  (** modelled frame time, fixed fusion pass *)
  at_auto_us : float;  (** modelled frame time, autotuned plan *)
  at_rules : string list;  (** winning rewrite sequence *)
  at_bit_checked : bool;  (** functional bit-identity executed? *)
  at_bit_identical : bool;  (** tuned output = reference (when checked) *)
}

(* All three arms are scored with the tuner's own cost function (a
   timing-only replay under the analytic device model), which is also
   the search objective — so "auto never loses to a fixed mode" is
   measured with the exact metric the search optimises.  Functional
   bit-identity executes every thread, so it is checked up to CIF and
   skipped at 1080p, like the fusion ablation's clamp. *)
let bit_check_pixels = 288 * 352

let autotune ?(shapes = [ (72, 64); (288, 352); (1080, 1920) ]) () =
  Obs.Tracer.with_span ~cat:"study" "study.autotune" @@ fun () ->
  let tensor_eq = Tensor.equal Int.equal in
  let row_of shape_rows shape_cols pipeline ~off_us ~fuse_us ~auto_us ~rules
      ~bit =
    let at_bit_checked, at_bit_identical =
      match bit with None -> (false, false) | Some ok -> (true, ok)
    in
    {
      at_pipeline = pipeline;
      at_rows = shape_rows;
      at_cols = shape_cols;
      at_off_us = off_us;
      at_fuse_us = fuse_us;
      at_auto_us = auto_us;
      at_rules = rules;
      at_bit_checked;
      at_bit_identical;
    }
  in
  let sac (rows, cols) =
    let src = Sac.Programs.downscaler ~generic:false ~rows ~cols in
    let off, _ =
      Sac_cuda.Compile.plan_of_source ~opt:Optimizer.Mode.Off src ~entry:"main"
    in
    let fused, _ =
      Sac_cuda.Compile.plan_of_source ~opt:Optimizer.Mode.Fuse src
        ~entry:"main"
    in
    let tuned, _, rules = Sac_cuda.Autotune.tune off in
    let bit =
      if rows * cols > bit_check_pixels then None
      else begin
        let fmt = { Video.Format.name = "autotune"; rows; cols } in
        let plane =
          Video.Frame.plane (Video.Framegen.frame fmt 0) Video.Frame.R
        in
        let reference = Video.Downscaler.plane plane in
        let run plan liveness =
          (Sac_cuda.Exec.run ~liveness (Gpu.Context.create ()) plan
             ~args:[ ("frame", plane) ])
            .Sac_cuda.Exec.result
        in
        Some
          (tensor_eq (run tuned true) reference
          && tensor_eq (run off false) reference)
      end
    in
    row_of rows cols "SAC -> CUDA (non-generic)"
      ~off_us:(Sac_cuda.Autotune.modelled_us off)
      ~fuse_us:(Sac_cuda.Autotune.modelled_us fused)
      ~auto_us:(Sac_cuda.Autotune.modelled_us tuned)
      ~rules ~bit
  in
  let mde (rows, cols) =
    let model = Mde.Chain.downscaler_model ~rows ~cols in
    let off = Mde.Chain.transform_exn ~opt:Optimizer.Mode.Off model in
    let fused = Mde.Chain.transform_exn ~opt:Optimizer.Mode.Fuse model in
    let tuned, _, rules = Mde.Autotune.tune off in
    let bit =
      if rows * cols > bit_check_pixels then None
      else begin
        let fmt = { Video.Format.name = "autotune"; rows; cols } in
        let frame = Video.Framegen.frame fmt 0 in
        let expected = Video.Downscaler.frame frame in
        let run gen liveness =
          let ctx = Gpu.Context.create () in
          Mde.Chain.run ~liveness ctx gen
            ~inputs:
              [
                ("r_in", Video.Frame.plane frame Video.Frame.R);
                ("g_in", Video.Frame.plane frame Video.Frame.G);
                ("b_in", Video.Frame.plane frame Video.Frame.B);
              ]
        in
        let matches outs =
          List.for_all
            (fun (port, ch) ->
              tensor_eq (List.assoc port outs) (Video.Frame.plane expected ch))
            [
              ("r_out", Video.Frame.R);
              ("g_out", Video.Frame.G);
              ("b_out", Video.Frame.B);
            ]
        in
        Some (matches (run tuned true) && matches (run off false))
      end
    in
    row_of rows cols "Gaspard2 -> OpenCL"
      ~off_us:(Mde.Autotune.modelled_us off)
      ~fuse_us:(Mde.Autotune.modelled_us fused)
      ~auto_us:(Mde.Autotune.modelled_us tuned)
      ~rules ~bit
  in
  List.concat_map (fun shape -> [ sac shape; mde shape ]) shapes

(* ------------------------------------------------------------------ *)
(* Stream overlap (Section VIII follow-up)                             *)
(* ------------------------------------------------------------------ *)

(* One frame's timeline per pipeline, pipelined over the run length
   with double-buffered streams: what both backends leave on the table
   by synchronising per frame. *)
let overlap ?(scale = Scale.paper) () =
  Obs.Tracer.with_span ~cat:"study" "study.overlap" @@ fun () ->
  let rows = scale.Scale.rows and cols = scale.Scale.cols in
  let sac =
    let src = Sac.Programs.downscaler ~generic:false ~rows ~cols in
    let plan, _ = Sac_cuda.Compile.plan_of_source src ~entry:"main" in
    let plane =
      Ndarray.Tensor.init [| rows; cols |] (fun idx ->
          (idx.(0) + (2 * idx.(1))) mod 251)
    in
    let ctx = Gpu.Context.create ~mode:Gpu.Context.Timing_only () in
    ignore
      (Sac_cuda.Exec.run ~host_mode:`Estimate ctx plan
         ~args:[ ("frame", plane) ]);
    (* The SAC route processes one plane per round. *)
    Gpu.Overlap.of_timeline (Gpu.Context.timeline ctx)
      ~rounds:(Scale.planes * scale.Scale.frames)
  in
  let gaspard =
    Gpu.Overlap.of_timeline (Gaspard_runs.run_once scale)
      ~rounds:scale.Scale.frames
  in
  [ ("SAC -> CUDA (non-generic)", sac); ("Gaspard2 -> OpenCL", gaspard) ]

(* ------------------------------------------------------------------ *)
(* Multi-device sharding (devices ablation)                            *)
(* ------------------------------------------------------------------ *)

type devices_row = {
  dv_devices : int;
  dv_rows : int;
  dv_cols : int;
  dv_frames : int;
  dv_makespan_us : float;
  dv_serial_us : float;
  dv_speedup : float;
  dv_pcie_bytes : int;
  dv_peer_bytes : int;
  dv_bit_identical : bool;
}

(* Frames shard across the device set exactly as `downscale --devices`
   does: the residency-aware scheduler places each frame on the
   least-loaded device (placement is sequential, hence deterministic),
   each device accounts its own timeline, and the scaled planes of the
   secondary devices migrate to device 0 over peer links before the
   final download — which is what puts Memcpy_d2d traffic on the
   books and splits the transfer volume between PCIe (host links) and
   peer links.

   Timing runs in [Timing_only] / [`Estimate] mode, clamped to a few
   dozen frames (the modelled per-frame time is frame-independent);
   bit-identity of the sharded run executes functionally at the
   validation geometry, whatever [scale] says, like the other
   functional ablations. *)
let devices ?(scale = Scale.paper) ?(counts = [ 1; 2; 4 ]) () =
  Obs.Tracer.with_span ~cat:"study" "study.devices" @@ fun () ->
  let rows = scale.Scale.rows and cols = scale.Scale.cols in
  let frames = max 1 (min scale.Scale.frames 24) in
  let profile = Gpu.Device.gtx480 in
  let src = Sac.Programs.downscaler ~generic:false ~rows ~cols in
  let plan, _ = Sac_cuda.Compile.plan_of_source src ~entry:"main" in
  let plane =
    Tensor.init [| rows; cols |] (fun idx -> (idx.(0) + (2 * idx.(1))) mod 251)
  in
  let out_bytes = 4 * Scale.v_out_rows scale * Scale.h_out_cols scale in
  let bit_identical n =
    let vrows = 72 and vcols = 64 in
    let fmt = { Video.Format.name = "devices"; rows = vrows; cols = vcols } in
    let vsrc = Sac.Programs.downscaler ~generic:false ~rows:vrows ~cols:vcols in
    let vplan, _ = Sac_cuda.Compile.plan_of_source vsrc ~entry:"main" in
    let topology = Gpu.Topology.uniform ~devices:n profile in
    let sched = Gpu.Sched.create topology in
    let frame_us =
      Gpu.Topology.transfer_time_us topology ~src:Gpu.Topology.Host
        ~dst:(Gpu.Topology.Dev 0)
        ~bytes:(3 * 4 * vrows * vcols)
    in
    List.for_all
      (fun f ->
        let d =
          Gpu.Sched.place sched
            ~name:(Printf.sprintf "frame %d" f)
            ~us_of:(fun _ -> frame_us)
        in
        let ctx = Gpu.Context.create ~ordinal:d.Gpu.Sched.ordinal ~topology () in
        let frame = Video.Framegen.frame fmt f in
        let scaled =
          Video.Frame.map_planes
            (fun _ p ->
              (Sac_cuda.Exec.run ctx vplan ~args:[ ("frame", p) ])
                .Sac_cuda.Exec.result)
            frame
        in
        Video.Frame.equal scaled (Video.Downscaler.frame frame))
      (List.init (max 2 n) Fun.id)
  in
  let base_makespan = ref 0.0 in
  List.map
    (fun n ->
      let topology = Gpu.Topology.uniform ~devices:n profile in
      let sched = Gpu.Sched.create topology in
      let ctxs =
        Array.init n (fun ordinal ->
            Gpu.Context.create ~mode:Gpu.Context.Timing_only ~ordinal ~topology
              ())
      in
      let frame_us =
        Gpu.Topology.transfer_time_us topology ~src:Gpu.Topology.Host
          ~dst:(Gpu.Topology.Dev 0)
          ~bytes:(3 * 4 * rows * cols)
      in
      let per_dev_frames = Array.make n 0 in
      for f = 0 to frames - 1 do
        let d =
          Gpu.Sched.place sched
            ~name:(Printf.sprintf "frame %d" f)
            ~us_of:(fun _ -> frame_us)
        in
        let o = d.Gpu.Sched.ordinal in
        per_dev_frames.(o) <- per_dev_frames.(o) + 1;
        for _plane = 1 to Scale.planes do
          ignore
            (Sac_cuda.Exec.run ~host_mode:`Estimate ctxs.(o) plan
               ~args:[ ("frame", plane) ])
        done
      done;
      (* Gather the secondary devices' scaled planes onto device 0
         (peer-link migrations, paid by the receiver). *)
      for o = 1 to n - 1 do
        if per_dev_frames.(o) > 0 then
          Gpu.Context.record_d2d ctxs.(0)
            ~detail:
              (Printf.sprintf "gather dev%d (%d frame(s))" o per_dev_frames.(o))
            ~src:o
            ~bytes:(per_dev_frames.(o) * Scale.planes * out_bytes)
      done;
      let per_dev_us = Array.map Gpu.Context.elapsed_us ctxs in
      let makespan = Array.fold_left Float.max 0.0 per_dev_us in
      let serial = Array.fold_left ( +. ) 0.0 per_dev_us in
      if !base_makespan = 0.0 then base_makespan := makespan;
      let pcie = ref 0 and peer = ref 0 in
      Array.iter
        (fun ctx ->
          List.iter
            (fun (e : Gpu.Timeline.event) ->
              match e.Gpu.Timeline.kind with
              | Gpu.Timeline.Memcpy_h2d | Gpu.Timeline.Memcpy_d2h ->
                  pcie := !pcie + e.Gpu.Timeline.bytes
              | Gpu.Timeline.Memcpy_d2d -> peer := !peer + e.Gpu.Timeline.bytes
              | Gpu.Timeline.Kernel -> ())
            (Gpu.Timeline.events (Gpu.Context.timeline ctx)))
        ctxs;
      {
        dv_devices = n;
        dv_rows = rows;
        dv_cols = cols;
        dv_frames = frames;
        dv_makespan_us = makespan;
        dv_serial_us = serial;
        dv_speedup =
          (if makespan > 0.0 then !base_makespan /. makespan else 1.0);
        dv_pcie_bytes = !pcie;
        dv_peer_bytes = !peer;
        dv_bit_identical = bit_identical n;
      })
    counts

type lint_report = {
  pipeline : string;
  kernels : int;
  findings : Analysis.Finding.t list;
}

(* Static analysis over everything both pipelines generate at [scale]:
   the SAC plans (both output-tiler variants) and the Gaspard2 kernel
   tasks.  Runs with gates disabled so each kernel is analyzed exactly
   once, here. *)
let lint ?(scale = Scale.validation) ?(opt = Optimizer.Mode.Off) () =
  Obs.Tracer.with_span ~cat:"study" "study.lint" @@ fun () ->
  let rows = scale.Scale.rows and cols = scale.Scale.cols in
  let saved = Analysis.Config.mode () in
  Fun.protect ~finally:(fun () -> Analysis.Config.set_mode saved) @@ fun () ->
  Analysis.Config.set_mode Analysis.Config.Off;
  let sac generic =
    let src = Sac.Programs.downscaler ~generic ~rows ~cols in
    let plan, _ = Sac_cuda.Compile.plan_of_source ~opt src ~entry:"main" in
    let findings = Sac_cuda.Verify.check plan in
    Analysis.Finding.record ~kernels:(Sac_cuda.Plan.kernel_count plan) findings;
    {
      pipeline =
        Printf.sprintf "SAC -> CUDA (%s)"
          (if generic then "generic" else "non-generic");
      kernels = Sac_cuda.Plan.kernel_count plan;
      findings;
    }
  in
  let mde =
    let gen =
      Mde.Chain.transform_exn ~opt (Mde.Chain.downscaler_model ~rows ~cols)
    in
    let tasks = gen.Mde.Codegen.kernel_tasks in
    let findings = Mde.Verify.check_generated gen in
    Analysis.Finding.record ~kernels:(List.length tasks) findings;
    { pipeline = "Gaspard2 -> OpenCL"; kernels = List.length tasks; findings }
  in
  [ sac false; sac true; mde ]

type perf_row = {
  pr_kernel : string;
  pr_buffer : string;
  pr_class : [ `Row | `Column | `Gather ];
  pr_burst : float;
  pr_efficiency : float;
  pr_overlap : float;
  pr_bank_conflict : int;
  pr_bandwidth_gbs : float;
}

type perf_report = {
  pl_pipeline : string;
  pl_kernels : int;
  pl_rows : perf_row list;
  pl_findings : Analysis.Finding.t list;
}

(* Static memory-behaviour analysis over everything both pipelines
   generate at [scale]: per-kernel proven access class, burst and
   coalescing efficiency with the modelled effective bandwidth each
   buffer stream sustains, plus the ranked perf lints.  Gates off so
   each kernel is linted exactly once, here. *)
let perf_lint ?(scale = Scale.validation) ?(opt = Optimizer.Mode.Off) () =
  Obs.Tracer.with_span ~cat:"study" "study.perf_lint" @@ fun () ->
  let rows = scale.Scale.rows and cols = scale.Scale.cols in
  let device = Gpu.Device.gtx480 in
  let saved = Analysis.Config.perf_mode () in
  Fun.protect ~finally:(fun () -> Analysis.Config.set_perf_mode saved)
  @@ fun () ->
  Analysis.Config.set_perf_mode Analysis.Config.Off;
  let rows_of ~split kernels =
    List.concat_map
      (fun ((k : Gpu.Kir.t), grid) ->
        match Gpu.Kir.static_cost k ~grid with
        | Error _ -> []
        | Ok cost -> (
            match cost.Gpu.Kir.summary with
            | None -> []
            | Some s ->
                List.map
                  (fun (b : Gpu.Kir.buffer_access) ->
                    {
                      pr_kernel = k.Gpu.Kir.kname;
                      pr_buffer = b.Gpu.Kir.ba_buffer;
                      pr_class = b.Gpu.Kir.ba_class;
                      pr_burst = b.Gpu.Kir.ba_burst;
                      pr_efficiency = b.Gpu.Kir.ba_efficiency;
                      pr_overlap = b.Gpu.Kir.ba_overlap;
                      pr_bank_conflict = b.Gpu.Kir.ba_bank_conflict;
                      pr_bandwidth_gbs =
                        Gpu.Perf_model.effective_bandwidth_gbs
                          ~burst:b.Gpu.Kir.ba_burst device
                          ~access:b.Gpu.Kir.ba_class ~split;
                    })
                  s.Gpu.Kir.as_buffers))
      kernels
  in
  let sac generic =
    let src = Sac.Programs.downscaler ~generic ~rows ~cols in
    let plan, _ = Sac_cuda.Compile.plan_of_source ~opt src ~entry:"main" in
    let krows =
      List.concat_map
        (fun item ->
          match item with
          | Sac_cuda.Plan.Device_withloop { kernels; _ } ->
              rows_of ~split:(List.length kernels) kernels
          | _ -> [])
        plan.Sac_cuda.Plan.items
    in
    {
      pl_pipeline =
        Printf.sprintf "SAC -> CUDA (%s)"
          (if generic then "generic" else "non-generic");
      pl_kernels = Sac_cuda.Plan.kernel_count plan;
      pl_rows = krows;
      pl_findings = Sac_cuda.Verify.perf_check plan;
    }
  in
  let mde =
    let gen =
      Mde.Chain.transform_exn ~opt (Mde.Chain.downscaler_model ~rows ~cols)
    in
    let tasks = gen.Mde.Codegen.kernel_tasks in
    {
      pl_pipeline = "Gaspard2 -> OpenCL";
      pl_kernels = List.length tasks;
      pl_rows =
        rows_of ~split:1
          (List.map
             (fun kt -> (kt.Mde.Codegen.kernel, kt.Mde.Codegen.grid))
             tasks);
      pl_findings = Mde.Verify.perf_check tasks;
    }
  in
  [ sac false; sac true; mde ]
