open Ndarray

type channel = R | G | B

type t = { r : int Tensor.t; g : int Tensor.t; b : int Tensor.t }

let channels = [ R; G; B ]

let channel_name = function R -> "R" | G -> "G" | B -> "B"

let init fmt f =
  {
    r = Tensor.init (Format.shape fmt) (f R);
    g = Tensor.init (Format.shape fmt) (f G);
    b = Tensor.init (Format.shape fmt) (f B);
  }

let plane t = function R -> t.r | G -> t.g | B -> t.b

let format_shape t = Tensor.shape t.r

let map_planes f t = { r = f R t.r; g = f G t.g; b = f B t.b }

let equal a b =
  List.for_all
    (fun c -> Tensor.equal Int.equal (plane a c) (plane b c))
    channels

let max_abs_diff a b =
  List.fold_left
    (fun acc c ->
      let pa = plane a c and pb = plane b c in
      Tensor.fold (fun m d -> max m (abs d)) acc (Tensor.map2 ( - ) pa pb))
    0 channels

let clamp8 v = if v < 0 then 0 else if v > 255 then 255 else v
