(* The paper's case study end to end: CIF frames through both compiler
   pipelines, profiles side by side, outputs cross-checked.

   Run with: dune exec examples/h263_downscaler.exe *)

open Ndarray

let fmt = Video.Format.cif (* 288x352: multiples of 9 and 8 *)

let () =
  Printf.printf "H.263 downscaler on %s\n"
    (Format.asprintf "%a" Video.Format.pp fmt);
  let frame = Video.Framegen.frame fmt 0 in
  let reference = Video.Downscaler.frame frame in

  (* Route 1: SAC -> CUDA. *)
  let src =
    Sac.Programs.downscaler ~generic:false ~rows:fmt.Video.Format.rows
      ~cols:fmt.Video.Format.cols
  in
  let plan, report =
    Sac_cuda.Compile.plan_of_source
      ~label_of:(Sac.Programs.downscaler_labels ())
      src ~entry:"main"
  in
  Printf.printf
    "\nSAC route: WLF performed %d folds; backend created %d kernels\n"
    report.Sac.Pipeline.wlf_rounds
    (Sac_cuda.Plan.kernel_count plan);
  let rt = Cuda.Runtime.init () in
  let sac_result =
    Video.Frame.map_planes
      (fun _ plane ->
        (Sac_cuda.Exec.run rt plan ~args:[ ("frame", plane) ])
          .Sac_cuda.Exec.result)
      frame
  in
  Printf.printf "SAC output identical to reference: %b\n"
    (Video.Frame.equal sac_result reference);
  print_string
    (Gpu.Profiler.to_string ~title:"SAC device profile (1 frame):"
       (Cuda.Runtime.profile rt));

  (* Route 2: ArrayOL model -> Gaspard2 -> OpenCL. *)
  let gen =
    Mde.Chain.transform_exn
      (Mde.Chain.downscaler_model ~rows:fmt.Video.Format.rows
         ~cols:fmt.Video.Format.cols)
  in
  let ctx = Opencl.Runtime.create_context () in
  let outs =
    Mde.Chain.run ctx gen
      ~label_of:Mde.Chain.downscaler_label
      ~inputs:
        [
          ("r_in", Video.Frame.plane frame Video.Frame.R);
          ("g_in", Video.Frame.plane frame Video.Frame.G);
          ("b_in", Video.Frame.plane frame Video.Frame.B);
        ]
  in
  let gaspard_result =
    {
      Video.Frame.r = List.assoc "r_out" outs;
      g = List.assoc "g_out" outs;
      b = List.assoc "b_out" outs;
    }
  in
  Printf.printf "\nGaspard2 output identical to reference: %b\n"
    (Video.Frame.equal gaspard_result reference);
  Printf.printf "both routes agree with each other: %b\n"
    (Video.Frame.equal sac_result gaspard_result);
  print_string
    (Gpu.Profiler.to_string ~title:"Gaspard2 device profile (1 frame):"
       (Opencl.Runtime.profile ctx));

  (* Write the result where an image viewer can find it. *)
  let out = Filename.temp_file "downscaled" ".ppm" in
  Video.Frame_io.write_ppm out gaspard_result;
  Printf.printf "\nwrote %s (%dx%d)\n" out
    (Tensor.shape gaspard_result.Video.Frame.r).(0)
    (Tensor.shape gaspard_result.Video.Frame.r).(1)
