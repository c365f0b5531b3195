open Ndarray

type t = { origin : Index.t; fitting : Linalg.mat; paving : Linalg.mat }

type spec = {
  tiler : t;
  array_shape : Shape.t;
  pattern_shape : Shape.t;
  repetition_shape : Shape.t;
}

let make ~origin ~fitting ~paving =
  if not (Linalg.is_rectangular fitting && Linalg.is_rectangular paving) then
    invalid_arg "Tiler.make: ragged matrix";
  { origin; fitting; paving }

let validate s =
  let ar = Shape.rank s.array_shape in
  let pr = Shape.rank s.pattern_shape in
  let rr = Shape.rank s.repetition_shape in
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  if not (Shape.is_valid s.array_shape) then err "invalid array shape"
  else if not (Shape.is_valid s.pattern_shape) then err "invalid pattern shape"
  else if not (Shape.is_valid s.repetition_shape) then
    err "invalid repetition shape"
  else if Array.length s.tiler.origin <> ar then
    err "origin rank %d <> array rank %d" (Array.length s.tiler.origin) ar
  else if pr > 0 && Linalg.rows s.tiler.fitting <> ar then
    err "fitting has %d rows, array rank is %d"
      (Linalg.rows s.tiler.fitting) ar
  else if Linalg.cols s.tiler.fitting <> pr && not (pr = 0) then
    err "fitting has %d columns, pattern rank is %d"
      (Linalg.cols s.tiler.fitting) pr
  else if rr > 0 && Linalg.rows s.tiler.paving <> ar then
    err "paving has %d rows, array rank is %d" (Linalg.rows s.tiler.paving) ar
  else if Linalg.cols s.tiler.paving <> rr && not (rr = 0) then
    err "paving has %d columns, repetition rank is %d"
      (Linalg.cols s.tiler.paving) rr
  else if Array.exists (fun e -> e = 0) s.array_shape && Shape.size s.repetition_shape > 0
  then err "cannot tile an empty array"
  else Ok ()

let spec ~origin ~fitting ~paving ~array_shape ~pattern_shape ~repetition_shape
    =
  let s =
    {
      tiler = make ~origin ~fitting ~paving;
      array_shape;
      pattern_shape;
      repetition_shape;
    }
  in
  match validate s with
  | Ok () -> s
  | Error m -> invalid_arg (Printf.sprintf "Tiler.spec: %s" m)

let ref_unwrapped s r = Index.add s.tiler.origin (Linalg.mv s.tiler.paving r)

let ref_index s r = Index.wrap s.array_shape (ref_unwrapped s r)

let elem_index_unwrapped s ~rep ~pat =
  Index.add (ref_unwrapped s rep) (Linalg.mv s.tiler.fitting pat)

let elem_index s ~rep ~pat =
  Index.wrap s.array_shape (elem_index_unwrapped s ~rep ~pat)

let gather arr s ~rep =
  Tensor.init s.pattern_shape (fun pat ->
      Tensor.get arr (elem_index s ~rep ~pat))

let gather_all arr s =
  let out_shape = Shape.concat s.repetition_shape s.pattern_shape in
  let out = Tensor.create out_shape (Tensor.get_lin arr 0) in
  Index.iter s.repetition_shape (fun rep ->
      Tensor.set_tile out ~outer:rep (gather arr s ~rep));
  out

let scatter arr s ~rep tile =
  Index.iter s.pattern_shape (fun pat ->
      Tensor.set arr (elem_index s ~rep ~pat) (Tensor.get tile pat))

let scatter_all arr s tiles =
  let expected = Shape.concat s.repetition_shape s.pattern_shape in
  if not (Shape.equal (Tensor.shape tiles) expected) then
    invalid_arg "Tiler.scatter_all: tile tensor shape mismatch";
  Index.iter s.repetition_shape (fun rep ->
      scatter arr s ~rep
        (Tensor.sub_tile tiles ~outer:rep
           ~inner_rank:(Shape.rank s.pattern_shape)))

let coverage s =
  let counts = Tensor.create s.array_shape 0 in
  Index.iter s.repetition_shape (fun rep ->
      Index.iter s.pattern_shape (fun pat ->
          let i = elem_index s ~rep ~pat in
          Tensor.set counts i (Tensor.get counts i + 1)));
  counts

(* A tiler is separable when no paving or fitting column moves two
   array axes: element axis j is then [o_j + sum c k mod s_j] over its
   own (coeff, extent) columns.  An all-zero column joins axis 0 with
   coefficient 0, where its repeats collide.  Raises [Exit] on other
   or malformed specs, which {!coverage} decides by counting. *)
let axis_columns s =
  let ar = Shape.rank s.array_shape in
  let axes = Array.make ar [] in
  let add m shape =
    if Linalg.rows m <> ar || Linalg.cols m <> Shape.rank shape
       || not (Shape.is_valid shape)
    then raise Exit;
    Array.iteri
      (fun col extent ->
        match Linalg.column_nonzeros m col with
        | [] -> axes.(0) <- (0, extent) :: axes.(0)
        | [ (j, c) ] -> axes.(j) <- (c, extent) :: axes.(j)
        | _ -> raise Exit)
      shape
  in
  if Array.length s.tiler.origin <> ar || Array.exists (fun e -> e <= 0) s.array_shape
  then raise Exit;
  add s.tiler.paving s.repetition_shape;
  add s.tiler.fitting s.pattern_shape;
  Array.mapi (fun j cols -> (j, cols)) axes

(* Per-axis decision of a separable spec; a non-separable one, or an
   axis search that runs out of budget, falls back to requiring [count]
   of every element's coverage. *)
let decide s ~count per_axis =
  try Array.for_all (fun (j, cols) -> per_axis j cols) (axis_columns s)
  with Exit -> Tensor.fold (fun acc c -> acc && count c) true (coverage s)

let decided = function
  | Linalg.Solution _ -> true
  | Linalg.No_solution -> false
  | Linalg.Gave_up -> raise Exit

let points s = Shape.size s.repetition_shape * Shape.size s.pattern_shape

(* Exact cover: as many points as elements, and each axis injective
   modulo its extent. *)
let is_exact_cover s =
  decide s ~count:(( = ) 1) (fun j cols ->
      points s = Shape.size s.array_shape
      && not (decided (Linalg.injective ~modulus:s.array_shape.(j) cols)))

(* Read cover: every residue r of axis j is [o_j + sum c k + s_j w]
   for some wrap [w]. *)
let covers_array s =
  decide s ~count:(( <= ) 1) (fun j cols ->
      let m = s.array_shape.(j) and o = s.tiler.origin.(j) in
      let w = (List.fold_left (fun acc (c, n) -> acc + (abs c * n)) (abs o) cols / m) + 1 in
      points s > 0
      && List.for_all
           (fun r -> decided (Linalg.meet (o, cols) (r - (m * w), [ (m, (2 * w) + 1) ])))
           (List.init m Fun.id))

let pp ppf t =
  Format.fprintf ppf "@[<v>origin=%a@ fitting=%a@ paving=%a@]" Index.pp
    t.origin Linalg.pp t.fitting Linalg.pp t.paving

let pp_spec ppf s =
  Format.fprintf ppf
    "@[<v>array shape=%a@ pattern shape=%a@ repetition space=%a@ %a@]"
    Shape.pp s.array_shape Shape.pp s.pattern_shape Shape.pp
    s.repetition_shape pp s.tiler
