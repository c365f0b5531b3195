open Ndarray
open Video

let int_tensor = Alcotest.testable (Tensor.pp Fmt.int) (Tensor.equal Int.equal)

(* A small format compatible with both filters: multiples of 8 columns
   and 9 rows. *)
let small = { Format.name = "small"; rows = 18; cols = 16 }

let test_format_chain () =
  let h = Format.after_horizontal Format.hdtv_1080 in
  Alcotest.(check (pair int int)) "after horizontal" (1080, 720)
    (h.Format.rows, h.Format.cols);
  let d = Format.downscaled Format.hdtv_1080 in
  Alcotest.(check (pair int int)) "DVD resolution" (480, 720)
    (d.Format.rows, d.Format.cols);
  let c = Format.downscaled Format.cif in
  (* Section III: CIF 352x288 scales to 132x128. *)
  Alcotest.(check (pair int int)) "CIF to 128x132" (128, 132)
    (c.Format.rows, c.Format.cols)

let test_format_invalid () =
  Alcotest.(check bool) "non multiple of 8 rejected" true
    (try
       ignore (Format.after_horizontal { Format.name = "x"; rows = 2; cols = 9 });
       false
     with Invalid_argument _ -> true)

let test_interpolate () =
  Alcotest.(check int) "sum 60 -> 10" 10 (Downscaler.interpolate 60);
  Alcotest.(check int) "sum 61 -> 9" 9 (Downscaler.interpolate 61);
  Alcotest.(check int) "sum 0 -> 0" 0 (Downscaler.interpolate 0)

let test_horizontal_constant () =
  (* A constant plane: every window sums to 6v, so output is v - 0. *)
  let plane = Tensor.create [| 2; 16 |] 7 in
  let out = Downscaler.horizontal plane in
  Alcotest.(check (list int)) "shape" [ 2; 6 ]
    (Array.to_list (Tensor.shape out));
  Alcotest.check int_tensor "constant 7" (Tensor.create [| 2; 6 |] 7) out

let test_vertical_constant () =
  let plane = Tensor.create [| 18; 3 |] 12 in
  let out = Downscaler.vertical plane in
  Alcotest.(check (list int)) "shape" [ 8; 3 ]
    (Array.to_list (Tensor.shape out));
  Alcotest.check int_tensor "constant 12" (Tensor.create [| 8; 3 |] 12) out

let test_horizontal_window_positions () =
  (* Put a spike in column 5 of the first packet: only output position
     whose window covers column 5 sees it.  Windows are 0..5, 2..7 and
     5..10, so all three positions include column 5. A spike at column 1
     is seen only by window 0 (0..5 contains 1; 2..7 does not... it
     starts at 2).  *)
  let plane = Tensor.create [| 1; 16 |] 0 in
  Tensor.set plane [| 0; 1 |] 60;
  let out = Downscaler.horizontal plane in
  Alcotest.(check int) "window 0 sees col 1" (Downscaler.interpolate 60)
    (Tensor.get out [| 0; 0 |]);
  Alcotest.(check int) "window 1 misses col 1" 0 (Tensor.get out [| 0; 1 |]);
  Alcotest.(check int) "window 2 misses col 1" 0 (Tensor.get out [| 0; 2 |])

let test_horizontal_wraps () =
  (* The 11-point pattern of the last packet wraps: output position 2 of
     the last packet reads columns 13..18 mod 16, i.e. col 0..2. *)
  let plane = Tensor.create [| 1; 16 |] 0 in
  Tensor.set plane [| 0; 0 |] 36;
  let out = Downscaler.horizontal plane in
  (* Last packet, position 2: window base 8+5=13, covers {13..15,0,1,2}. *)
  Alcotest.(check int) "wrapped read contributes" (Downscaler.interpolate 36)
    (Tensor.get out [| 0; 5 |]);
  (* Also position 0 of packet 0 covers column 0. *)
  Alcotest.(check int) "direct read" (Downscaler.interpolate 36)
    (Tensor.get out [| 0; 0 |])

let test_plane_chain_shape () =
  let f = Framegen.frame small 0 in
  let out = Downscaler.frame f in
  Alcotest.(check (list int)) "18x16 -> 8x6" [ 8; 6 ]
    (Array.to_list (Frame.format_shape out))

(* The structural cross-check: running the *tiler specifications*
   (gather_all -> window interpolation per tile -> scatter_all) must
   reproduce the direct reference filters. This is exactly the 3-step
   decomposition of Section VI. *)
let tiler_pipeline_h plane fmt =
  let h_in, _ = Downscaler.input_tilers fmt in
  let h_out, _ = Downscaler.output_tilers fmt in
  let gathered = Tiler.gather_all plane h_in in
  let tiles =
    Tensor.init
      (Shape.concat h_in.Tiler.repetition_shape [| Downscaler.h_pack_out |])
      (fun idx ->
        let rep = [| idx.(0); idx.(1) |] and k = idx.(2) in
        let sum = ref 0 in
        for t = 0 to Downscaler.window_len - 1 do
          sum :=
            !sum
            + Tensor.get gathered
                [| rep.(0); rep.(1); Downscaler.h_window_offsets.(k) + t |]
        done;
        Downscaler.interpolate !sum)
  in
  let out = Tensor.create h_out.Tiler.array_shape 0 in
  Tiler.scatter_all out h_out tiles;
  out

let test_tiler_pipeline_matches_reference () =
  let f = Framegen.frame small 3 in
  let plane = Frame.plane f Frame.R in
  Alcotest.check int_tensor "3-step tiler pipeline = direct filter"
    (Downscaler.horizontal plane)
    (tiler_pipeline_h plane small)

let test_framegen_deterministic () =
  let a = Framegen.frame small 5 and b = Framegen.frame small 5 in
  Alcotest.(check bool) "same frame twice" true (Frame.equal a b);
  let c = Framegen.frame small 6 in
  Alcotest.(check bool) "consecutive frames differ" false (Frame.equal a c)

let test_framegen_range () =
  let f = Framegen.frame small 0 in
  List.iter
    (fun ch ->
      Array.iter
        (fun v ->
          if v < 0 || v > 255 then Alcotest.failf "pixel out of range: %d" v)
        (Tensor.data (Frame.plane f ch)))
    Frame.channels

let test_sequence () =
  let frames = List.of_seq (Seq.take 4 (Framegen.stream small)) in
  Alcotest.(check int) "4 frames" 4 (List.length frames);
  Alcotest.(check bool) "first = frame 0" true
    (Frame.equal (List.hd frames) (Framegen.frame small 0))

let test_ppm_roundtrip () =
  let f = Framegen.frame small 1 in
  let path = Filename.temp_file "repro" ".ppm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Frame_io.write_ppm path f;
      let g = Frame_io.read_ppm path in
      Alcotest.(check bool) "roundtrip" true (Frame.equal f g))

let test_ppm_header () =
  let f = Framegen.frame small 0 in
  let s = Frame_io.ppm_string f in
  Alcotest.(check bool) "P6 header" true
    (String.length s > 2 && String.sub s 0 2 = "P6");
  Alcotest.(check int) "payload size" (String.length "P6\n16 18\n255\n" + (18 * 16 * 3))
    (String.length s)

let test_psnr () =
  let a = Framegen.frame small 0 in
  Alcotest.(check bool) "identical planes -> infinite PSNR" true
    (Quality.frame_psnr a a = infinity);
  let noisy =
    Frame.map_planes (fun _ p -> Tensor.map (fun v -> Frame.clamp8 (v + 1)) p) a
  in
  let p = Quality.frame_psnr a noisy in
  Alcotest.(check bool) "off-by-one is ~48 dB" true (p > 40.0 && p < 50.0)

let test_max_abs_diff () =
  let a = Framegen.frame small 0 in
  let b =
    Frame.map_planes
      (fun ch p ->
        if ch = Frame.G then Tensor.map (fun v -> Frame.clamp8 (v + 3)) p else p)
      a
  in
  Alcotest.(check bool) "diff at most 3, at least 1" true
    (let d = Frame.max_abs_diff a b in
     d >= 1 && d <= 3)

(* ---------- Colorspace ---------- *)

let test_colorspace_known_values () =
  (* Black, white and the primaries. *)
  Alcotest.(check int) "luma of black" 0 (Colorspace.y_of_rgb ~r:0 ~g:0 ~b:0);
  Alcotest.(check int) "luma of white" 255
    (Colorspace.y_of_rgb ~r:255 ~g:255 ~b:255);
  Alcotest.(check int) "luma of pure green is the largest primary" 150
    (Colorspace.y_of_rgb ~r:0 ~g:255 ~b:0);
  Alcotest.(check int) "luma of pure red" 76
    (Colorspace.y_of_rgb ~r:255 ~g:0 ~b:0)

let test_colorspace_grey_preserved () =
  (* Grey pixels have Cb = Cr = 128 and Y = value. *)
  let grey = Frame.init small (fun _ _ -> 100) in
  let ycc = Colorspace.rgb_to_ycbcr grey in
  Alcotest.(check int) "Y" 100 (Tensor.get (Frame.plane ycc Frame.R) [| 0; 0 |]);
  Alcotest.(check int) "Cb" 128 (Tensor.get (Frame.plane ycc Frame.G) [| 0; 0 |]);
  Alcotest.(check int) "Cr" 128 (Tensor.get (Frame.plane ycc Frame.B) [| 0; 0 |])

let test_colorspace_roundtrip () =
  let f = Framegen.frame small 9 in
  let back = Colorspace.ycbcr_to_rgb (Colorspace.rgb_to_ycbcr f) in
  Alcotest.(check bool) "roundtrip within +/-2 per component" true
    (Frame.max_abs_diff f back <= 2)

let prop_colorspace_roundtrip =
  QCheck.Test.make ~name:"rgb -> ycbcr -> rgb is near-exact" ~count:30
    (QCheck.int_range 0 1000) (fun n ->
      let f = Framegen.frame small n in
      Frame.max_abs_diff f (Colorspace.ycbcr_to_rgb (Colorspace.rgb_to_ycbcr f))
      <= 2)

(* ---------- Properties ---------- *)

let arb_frame_no = QCheck.int_range 0 1000

let prop_downscale_bounds =
  QCheck.Test.make ~name:"downscaled pixels stay within window bounds"
    ~count:25 arb_frame_no (fun n ->
      (* interpolate(sum) <= max pixel and >= -5 by construction:
         sum/6 - sum%6 with 0 <= pixels <= 255 gives range [-5, 255]. *)
      let f = Framegen.frame small n in
      let out = Downscaler.frame f in
      List.for_all
        (fun ch ->
          Tensor.fold
            (fun ok v -> ok && v >= -5 && v <= 255)
            true
            (Frame.plane out ch))
        Frame.channels)

let prop_horizontal_translation_rows =
  QCheck.Test.make
    ~name:"horizontal filter commutes with row permutation" ~count:25
    arb_frame_no (fun n ->
      (* The filter is row-wise independent: swapping two rows of the
         input swaps the same rows of the output. *)
      let f = Framegen.frame small n in
      let plane = Frame.plane f Frame.B in
      let swapped =
        Tensor.init (Tensor.shape plane) (fun idx ->
            let i = match idx.(0) with 0 -> 1 | 1 -> 0 | i -> i in
            Tensor.get plane [| i; idx.(1) |])
      in
      let out = Downscaler.horizontal plane in
      let out_swapped = Downscaler.horizontal swapped in
      let reswapped =
        Tensor.init (Tensor.shape out_swapped) (fun idx ->
            let i = match idx.(0) with 0 -> 1 | 1 -> 0 | i -> i in
            Tensor.get out_swapped [| i; idx.(1) |])
      in
      Tensor.equal Int.equal out reswapped)

let prop_tiler_pipeline_equivalence =
  QCheck.Test.make
    ~name:"tiler 3-step pipeline = reference (random frames)" ~count:15
    arb_frame_no (fun n ->
      let f = Framegen.frame small n in
      let plane = Frame.plane f Frame.G in
      Tensor.equal Int.equal
        (Downscaler.horizontal plane)
        (tiler_pipeline_h plane small))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_downscale_bounds;
      prop_horizontal_translation_rows;
      prop_tiler_pipeline_equivalence;
      prop_colorspace_roundtrip;
    ]

let () =
  Alcotest.run "video"
    [
      ( "format",
        [
          Alcotest.test_case "chain" `Quick test_format_chain;
          Alcotest.test_case "invalid" `Quick test_format_invalid;
        ] );
      ( "downscaler",
        [
          Alcotest.test_case "interpolate" `Quick test_interpolate;
          Alcotest.test_case "horizontal constant" `Quick
            test_horizontal_constant;
          Alcotest.test_case "vertical constant" `Quick test_vertical_constant;
          Alcotest.test_case "window positions" `Quick
            test_horizontal_window_positions;
          Alcotest.test_case "boundary wrap" `Quick test_horizontal_wraps;
          Alcotest.test_case "full chain shape" `Quick test_plane_chain_shape;
          Alcotest.test_case "tiler pipeline equivalence" `Quick
            test_tiler_pipeline_matches_reference;
        ] );
      ( "framegen",
        [
          Alcotest.test_case "deterministic" `Quick test_framegen_deterministic;
          Alcotest.test_case "pixel range" `Quick test_framegen_range;
          Alcotest.test_case "sequence" `Quick test_sequence;
        ] );
      ( "io",
        [
          Alcotest.test_case "ppm roundtrip" `Quick test_ppm_roundtrip;
          Alcotest.test_case "ppm header" `Quick test_ppm_header;
        ] );
      ( "colorspace",
        [
          Alcotest.test_case "known values" `Quick test_colorspace_known_values;
          Alcotest.test_case "grey preserved" `Quick
            test_colorspace_grey_preserved;
          Alcotest.test_case "roundtrip" `Quick test_colorspace_roundtrip;
        ] );
      ( "quality",
        [
          Alcotest.test_case "psnr" `Quick test_psnr;
          Alcotest.test_case "max_abs_diff" `Quick test_max_abs_diff;
        ] );
      ("properties", props);
    ]
