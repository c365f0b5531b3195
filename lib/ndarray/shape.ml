type t = int array

let scalar = [||]

let to_list = Array.to_list

let rank = Array.length

let size s = Array.fold_left ( * ) 1 s

let is_valid s = Array.for_all (fun e -> e >= 0) s

let equal (a : t) (b : t) = a = b

let concat = Array.append

let take n s =
  if n < 0 || n > Array.length s then invalid_arg "Shape.take";
  Array.sub s 0 n

let drop n s =
  if n < 0 || n > Array.length s then invalid_arg "Shape.drop";
  Array.sub s n (Array.length s - n)

let pp ppf s =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (to_list s)

let to_string s = Format.asprintf "%a" pp s
