(* Integer intervals with saturating arithmetic.

   Bounds are clamped to +-2^60, which stands in for +-infinity: kernel
   index arithmetic never reaches it, and keeping two headroom bits
   below OCaml's 63-bit ints lets addition of two saturated bounds stay
   exact before re-clamping.  Division and modulo follow the C (and
   Kir) semantics: truncation towards zero, remainder sign follows the
   dividend. *)

type t = { lo : int; hi : int }

let inf = 1 lsl 60

let sat v = if v >= inf then inf else if v <= -inf then -inf else v

let make lo hi =
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo = sat lo; hi = sat hi }

let of_int n = make n n

let top = { lo = -inf; hi = inf }

let range_excl lo hi = if lo >= hi then of_int lo else make lo (hi - 1)

let is_const i = i.lo = i.hi

let const_value i = if is_const i then Some i.lo else None

let contains i n = i.lo <= n && n <= i.hi

let subset a b = b.lo <= a.lo && a.hi <= b.hi

let join a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let sadd a b = sat (a + b)

(* Saturating multiply of two already-clamped bounds. *)
let smul a b =
  if a = 0 || b = 0 then 0
  else
    let sign_pos = a > 0 = (b > 0) in
    let aa = abs a and ab = abs b in
    if aa >= inf || ab >= inf || aa > inf / ab then if sign_pos then inf else -inf
    else a * b

let add a b = { lo = sadd a.lo b.lo; hi = sadd a.hi b.hi }

let neg a = { lo = sat (-a.hi); hi = sat (-a.lo) }

let sub a b = add a (neg b)

let corners f a b =
  let c1 = f a.lo b.lo and c2 = f a.lo b.hi and c3 = f a.hi b.lo and c4 = f a.hi b.hi in
  { lo = min (min c1 c2) (min c3 c4); hi = max (max c1 c2) (max c3 c4) }

let mul a b = corners smul a b

(* C-truncating division of clamped bounds, with infinities handled
   conservatively. *)
let sdiv n d =
  if d = 0 then assert false
  else if abs n >= inf && abs d >= inf then [ -inf; inf ]
  else if abs n >= inf then [ (if n > 0 = (d > 0) then inf else -inf) ]
  else if abs d >= inf then [ 0 ]
  else [ n / d ]

(* Divisor sample points: the interval ends plus the values nearest
   zero, which maximise the quotient magnitude. *)
let divisor_candidates b =
  List.filter
    (fun d -> d <> 0 && contains b d)
    [ b.lo; b.hi; 1; -1 ]

let div_c a b =
  match divisor_candidates b with
  | [] -> top (* divisor can only be zero; the checker reports it *)
  | ds ->
      let qs =
        List.concat_map (fun d -> List.concat_map (fun n -> sdiv n d) [ a.lo; a.hi ]) ds
      in
      { lo = List.fold_left min inf qs; hi = List.fold_left max (-inf) qs }

let mod_c a b =
  match divisor_candidates b with
  | [] -> top
  | ds -> (
      match (const_value a, const_value b) with
      | Some n, Some m when m <> 0 && abs m < inf && abs n < inf ->
          of_int (n mod m)
      | _ ->
          let mm = List.fold_left (fun acc d -> max acc (abs d)) 0 ds in
          if mm >= inf then
            (* |r| < |divisor| gives no finite bound; keep the sign
               information from the dividend. *)
            let lo = if a.lo >= 0 then 0 else -inf in
            let hi = if a.hi <= 0 then 0 else inf in
            { lo; hi }
          else
            (* C remainder: |r| <= |divisor| - 1, sign follows the
               dividend, and |r| <= |dividend|. *)
            let lo = max (-(mm - 1)) (min a.lo 0) in
            let hi = min (mm - 1) (max a.hi 0) in
            let i = { lo; hi } in
            (* When the divisor is a positive constant m and the
               dividend already lies in [0, m), [mod] is the identity. *)
            if
              (match const_value b with Some m -> m > 0 | None -> false)
              && a.lo >= 0
              && a.hi < b.lo
            then a
            else i)

let bool_itv can_false can_true =
  match (can_false, can_true) with
  | true, true -> make 0 1
  | false, true -> of_int 1
  | true, false -> of_int 0
  | false, false -> assert false

let lt a b = bool_itv (a.hi >= b.lo) (a.lo < b.hi)
let le a b = bool_itv (a.hi > b.lo) (a.lo <= b.hi)
let gt a b = le b a
let ge a b = lt b a

let eq a b =
  let can_true = max a.lo b.lo <= min a.hi b.hi in
  let can_false = not (is_const a && is_const b && a.lo = b.lo) in
  bool_itv can_false can_true

let ne a b =
  let e = eq a b in
  bool_itv (contains e 1) (contains e 0)

let truthiness i =
  let can_false = contains i 0 in
  let can_true = not (is_const i && i.lo = 0) in
  (can_false, can_true)

let and_ a b =
  let fa, ta = truthiness a and fb, tb = truthiness b in
  bool_itv (fa || fb) (ta && tb)

let or_ a b =
  let fa, ta = truthiness a and fb, tb = truthiness b in
  bool_itv (fa && fb) (ta || tb)

let min_ a b = { lo = min a.lo b.lo; hi = min a.hi b.hi }
let max_ a b = { lo = max a.lo b.lo; hi = max a.hi b.hi }

let pp ppf i =
  let bound ppf v =
    if v >= inf then Format.pp_print_string ppf "+inf"
    else if v <= -inf then Format.pp_print_string ppf "-inf"
    else Format.pp_print_int ppf v
  in
  if is_const i then Format.fprintf ppf "[%a]" bound i.lo
  else Format.fprintf ppf "[%a..%a]" bound i.lo bound i.hi
