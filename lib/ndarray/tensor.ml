type 'a t = { shape : Shape.t; data : 'a array }

let create shape v =
  if not (Shape.is_valid shape) then invalid_arg "Tensor.create";
  { shape; data = Array.make (Shape.size shape) v }

let of_array shape data =
  if not (Shape.is_valid shape) || Array.length data <> Shape.size shape then
    invalid_arg "Tensor.of_array";
  { shape; data }

let init shape f =
  if not (Shape.is_valid shape) then invalid_arg "Tensor.init";
  let n = Shape.size shape in
  if n = 0 then { shape; data = [||] }
  else begin
    (* One index array for the whole traversal, advanced in place; [f]
       must not retain it (see the .mli contract).  The previous
       per-cell [Array.copy] dominated large-plane initialisation. *)
    let idx = Index.zeros (Shape.rank shape) in
    let first = f idx in
    let data = Array.make n first in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      if !i > 0 then data.(!i) <- f idx;
      incr i;
      continue := Index.next_in_place shape idx
    done;
    { shape; data }
  end

let init_lin shape f =
  if not (Shape.is_valid shape) then invalid_arg "Tensor.init_lin";
  { shape; data = Array.init (Shape.size shape) f }

let scalar v = { shape = Shape.scalar; data = [| v |] }

let shape t = t.shape

let rank t = Shape.rank t.shape

let size t = Array.length t.data

let data t = t.data

let get t idx = t.data.(Index.ravel t.shape idx)

let set t idx v = t.data.(Index.ravel t.shape idx) <- v

let get_wrapped t idx = get t (Index.wrap t.shape idx)

let get_lin t i = t.data.(i)

let copy t = { t with data = Array.copy t.data }

let map f t = { t with data = Array.map f t.data }

let mapi f t = init t.shape (fun idx -> f idx (get t idx))

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Tensor.map2";
  { a with data = Array.map2 f a.data b.data }

let fold f init t = Array.fold_left f init t.data

let equal elt_eq a b =
  Shape.equal a.shape b.shape
  && begin
       let ok = ref true in
       for i = 0 to Array.length a.data - 1 do
         if not (elt_eq a.data.(i) b.data.(i)) then ok := false
       done;
       !ok
     end

let reshape t shape =
  if Shape.size shape <> size t then invalid_arg "Tensor.reshape";
  { shape; data = t.data }

let tile_geometry t ~outer ~inner_rank =
  let r = rank t in
  let outer_rank = r - inner_rank in
  if inner_rank < 0 || outer_rank <> Array.length outer then
    invalid_arg "Tensor.sub_tile";
  let inner_shape = Shape.drop outer_rank t.shape in
  let tile_size = Shape.size inner_shape in
  let base = Index.ravel (Shape.take outer_rank t.shape) outer * tile_size in
  (inner_shape, tile_size, base)

let sub_tile t ~outer ~inner_rank =
  let inner_shape, tile_size, base = tile_geometry t ~outer ~inner_rank in
  { shape = inner_shape; data = Array.sub t.data base tile_size }

let set_tile t ~outer tile =
  let inner_shape, tile_size, base =
    tile_geometry t ~outer ~inner_rank:(rank tile)
  in
  if not (Shape.equal inner_shape tile.shape) then invalid_arg "Tensor.set_tile";
  Array.blit tile.data 0 t.data base tile_size

let of_list_1d l = of_array [| List.length l |] (Array.of_list l)

let of_list_2d rows =
  let r = List.length rows in
  let c = match rows with [] -> 0 | row :: _ -> List.length row in
  if not (List.for_all (fun row -> List.length row = c) rows) then
    invalid_arg "Tensor.of_list_2d";
  of_array [| r; c |] (Array.of_list (List.concat rows))

let to_list t = Array.to_list t.data

let pp pp_elt ppf t =
  Format.fprintf ppf "@[<hov 2>tensor%a@ [%a]@]" Shape.pp t.shape
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_elt)
    (Array.to_list t.data)
