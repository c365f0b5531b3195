open Ndarray

(* BT.601 full-range, 16-bit fixed point. *)
let fx v = int_of_float (v *. 65536.0)

let cy_r = fx 0.299

let cy_g = fx 0.587

let cy_b = fx 0.114

let y_of_rgb ~r ~g ~b =
  Frame.clamp8 (((cy_r * r) + (cy_g * g) + (cy_b * b) + 32768) asr 16)

let cb_of_rgb ~r ~g ~b =
  Frame.clamp8
    ((((fx (-0.168736) * r) + (fx (-0.331264) * g) + (fx 0.5 * b) + 32768)
     asr 16)
    + 128)

let cr_of_rgb ~r ~g ~b =
  Frame.clamp8
    ((((fx 0.5 * r) + (fx (-0.418688) * g) + (fx (-0.081312) * b) + 32768)
     asr 16)
    + 128)

let per_pixel f frame =
  let shape = Frame.format_shape frame in
  let get p idx = Tensor.get (Frame.plane frame p) idx in
  let mk sel =
    Tensor.init shape (fun idx ->
        f sel (get Frame.R idx) (get Frame.G idx) (get Frame.B idx))
  in
  { Frame.r = mk `First; g = mk `Second; b = mk `Third }

let rgb_to_ycbcr frame =
  per_pixel
    (fun sel r g b ->
      match sel with
      | `First -> y_of_rgb ~r ~g ~b
      | `Second -> cb_of_rgb ~r ~g ~b
      | `Third -> cr_of_rgb ~r ~g ~b)
    frame

let ycbcr_to_rgb frame =
  (* Here the frame's planes are Y/Cb/Cr. *)
  per_pixel
    (fun sel y cb cr ->
      let cb = cb - 128 and cr = cr - 128 in
      let v =
        match sel with
        | `First -> (y * 65536) + (fx 1.402 * cr)
        | `Second -> (y * 65536) - (fx 0.344136 * cb) - (fx 0.714136 * cr)
        | `Third -> (y * 65536) + (fx 1.772 * cb)
      in
      Frame.clamp8 ((v + 32768) asr 16))
    frame
