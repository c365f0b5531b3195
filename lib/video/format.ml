type t = { name : string; rows : int; cols : int }

let cif = { name = "CIF"; rows = 288; cols = 352 }

let qcif = { name = "QCIF"; rows = 144; cols = 176 }

let hdtv_1080 = { name = "HDTV-1080"; rows = 1080; cols = 1920 }

let after_horizontal f =
  if f.cols mod 8 <> 0 then
    invalid_arg "Format.after_horizontal: width not a multiple of 8";
  { name = f.name ^ "-h"; rows = f.rows; cols = f.cols / 8 * 3 }

let after_vertical f =
  if f.rows mod 9 <> 0 then
    invalid_arg "Format.after_vertical: height not a multiple of 9";
  { name = f.name ^ "-v"; rows = f.rows / 9 * 4; cols = f.cols }

let downscaled f = after_vertical (after_horizontal f)

let shape f = [| f.rows; f.cols |]

let pp ppf f = Stdlib.Format.fprintf ppf "%s (%dx%d)" f.name f.rows f.cols
