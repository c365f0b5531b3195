type t = int array

let zeros n = Array.make n 0

let to_list = Array.to_list

let binop name f a b =
  if Array.length a <> Array.length b then invalid_arg name;
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let add a b = binop "Index.add" ( + ) a b

let sub a b = binop "Index.sub" ( - ) a b

let in_bounds shape idx =
  Array.length shape = Array.length idx
  && begin
       let ok = ref true in
       for d = 0 to Array.length idx - 1 do
         if idx.(d) < 0 || idx.(d) >= shape.(d) then ok := false
       done;
       !ok
     end

let positive_mod x m =
  let r = x mod m in
  if r < 0 then r + m else r

let wrap shape idx =
  if Array.length shape <> Array.length idx then invalid_arg "Index.wrap";
  Array.init (Array.length idx) (fun d ->
      if shape.(d) <= 0 then invalid_arg "Index.wrap: zero extent"
      else positive_mod idx.(d) shape.(d))

let ravel shape idx =
  if Array.length shape <> Array.length idx then invalid_arg "Index.ravel";
  let off = ref 0 in
  for d = 0 to Array.length shape - 1 do
    off := (!off * shape.(d)) + idx.(d)
  done;
  !off

let unravel shape off =
  let n = Array.length shape in
  let idx = Array.make n 0 in
  let rem = ref off in
  for d = n - 1 downto 0 do
    if shape.(d) = 0 then invalid_arg "Index.unravel";
    idx.(d) <- !rem mod shape.(d);
    rem := !rem / shape.(d)
  done;
  idx

let next_in_place shape idx =
  let rec bump d =
    if d < 0 then false
    else begin
      idx.(d) <- idx.(d) + 1;
      if idx.(d) < shape.(d) then true
      else begin
        idx.(d) <- 0;
        bump (d - 1)
      end
    end
  in
  bump (Array.length idx - 1)

let iter shape f =
  if Shape.size shape > 0 then begin
    let idx = zeros (Array.length shape) in
    let continue = ref true in
    while !continue do
      f (Array.copy idx);
      continue := next_in_place shape idx
    done
  end

let pp ppf idx =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (to_list idx)

let to_string idx = Format.asprintf "%a" pp idx
