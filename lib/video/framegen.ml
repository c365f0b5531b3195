(* A small integer hash gives a deterministic, aperiodic texture; mixed
   with gradients that move with the frame number so consecutive frames
   differ the way real video does. *)
let hash x =
  let x = x * 0x9E3779B1 in
  let x = x lxor (x lsr 15) in
  let x = x * 0x85EBCA77 in
  x lxor (x lsr 13)

let channel_salt = function Frame.R -> 17 | Frame.G -> 101 | Frame.B -> 229

let pixel ~channel ~frame_no ~row ~col =
  let salt = channel_salt channel in
  let gradient = (row + (2 * col) + (3 * frame_no) + salt) mod 200 in
  let texture = abs (hash ((row * 1920) + col + (frame_no * 31) + salt)) mod 56 in
  Frame.clamp8 (gradient + texture)

let frame fmt n =
  Frame.init fmt (fun channel idx ->
      pixel ~channel ~frame_no:n ~row:idx.(0) ~col:idx.(1))

let stream ?(start = 0) fmt =
  Seq.unfold (fun n -> Some (frame fmt n, n + 1)) start
