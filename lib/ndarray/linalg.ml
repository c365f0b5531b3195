type mat = int array array

let is_rectangular m =
  Array.length m = 0
  || Array.for_all (fun row -> Array.length row = Array.length m.(0)) m

let check name m = if not (is_rectangular m) then invalid_arg name

let of_lists rows =
  let m = Array.of_list (List.map Array.of_list rows) in
  check "Linalg.of_lists" m;
  m

let to_lists m = Array.to_list (Array.map Array.to_list m)

let rows m = Array.length m

let cols m = if Array.length m = 0 then 0 else Array.length m.(0)

let identity n = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0))

let transpose m =
  check "Linalg.transpose" m;
  Array.init (cols m) (fun j -> Array.init (rows m) (fun i -> m.(i).(j)))

let mv m v =
  check "Linalg.mv" m;
  if cols m <> Array.length v then invalid_arg "Linalg.mv: dimension mismatch";
  Array.init (rows m) (fun i ->
      let acc = ref 0 in
      for j = 0 to Array.length v - 1 do
        acc := !acc + (m.(i).(j) * v.(j))
      done;
      !acc)

let mm a b =
  check "Linalg.mm" a;
  check "Linalg.mm" b;
  if cols a <> rows b then invalid_arg "Linalg.mm: dimension mismatch";
  Array.init (rows a) (fun i ->
      Array.init (cols b) (fun j ->
          let acc = ref 0 in
          for k = 0 to cols a - 1 do
            acc := !acc + (a.(i).(k) * b.(k).(j))
          done;
          !acc))

let cat_cols a b =
  check "Linalg.cat_cols" a;
  check "Linalg.cat_cols" b;
  if rows a <> rows b && rows a <> 0 && rows b <> 0 then
    invalid_arg "Linalg.cat_cols: row mismatch";
  if rows a = 0 then b
  else if rows b = 0 then a
  else Array.init (rows a) (fun i -> Array.append a.(i) b.(i))

let column_nonzeros m j =
  List.filter (fun (_, v) -> v <> 0) (List.init (rows m) (fun i -> (i, m.(i).(j))))

let pp ppf m =
  let pp_row ppf row =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      (Array.to_list row)
  in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       pp_row)
    (Array.to_list m)

(* ---- bounded lattice search -------------------------------------- *)

type search = Solution of int array | No_solution | Gave_up

let search_budget = 1 lsl 16

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* floor of [a / b] for [b > 0] *)
let fdiv a b = if a >= 0 then a / b else -((b - 1 - a) / b)

(* Depth-first search for [k] with [lo <= k <= hi] and [sum c_i k_i = t],
   counting nodes and raising [Exit] past the budget.  Each term is
   rewritten as [|c| k'] with [k' = sign c * k], and terms of equal
   [|c|] merge into one variable over the sum of their intervals.  The
   merged variables go largest [|c|] first; each level keeps only the
   values the suffix can still complete (its min/max reach) and that
   the suffix gcd divides, so a mixed-radix map takes a few nodes per
   level. *)
let search_box nodes coeffs ~lo ~hi t =
  let sign i = if coeffs.(i) < 0 then -1 else 1 in
  let lo' i = min (sign i * lo.(i)) (sign i * hi.(i)) in
  let span i = hi.(i) - lo.(i) in
  let groups =
    List.init (Array.length coeffs) Fun.id
    |> List.filter (fun i -> coeffs.(i) <> 0)
    |> List.sort (fun i j -> compare (abs coeffs.(j)) (abs coeffs.(i)))
    |> List.fold_left
         (fun acc i ->
           match acc with
           | (c, is) :: rest when c = abs coeffs.(i) -> (c, i :: is) :: rest
           | _ -> (abs coeffs.(i), [ i ]) :: acc)
         []
    |> List.rev |> Array.of_list
  in
  let m = Array.length groups in
  let sum f is = List.fold_left (fun acc i -> acc + f i) 0 is in
  let glo = Array.map (fun (_, is) -> sum lo' is) groups in
  let ghi = Array.map (fun (_, is) -> sum (fun i -> lo' i + span i) is) groups in
  (* groups p.. reach [smin.(p), smax.(p)], in multiples of sg.(p) *)
  let smin = Array.make (m + 1) 0 and smax = Array.make (m + 1) 0 in
  let sg = Array.make (m + 1) 0 in
  for p = m - 1 downto 0 do
    let c = fst groups.(p) in
    smin.(p) <- smin.(p + 1) + (c * glo.(p));
    smax.(p) <- smax.(p + 1) + (c * ghi.(p));
    sg.(p) <- gcd c sg.(p + 1)
  done;
  let x = Array.make m 0 in
  let rec go p t =
    incr nodes;
    if !nodes > search_budget then raise Exit;
    if p = m then t = 0
    else
      let c = fst groups.(p) and g = sg.(p + 1) in
      let fits v = g = 0 || (t - (c * v)) mod g = 0 in
      (* the fitting values form one class mod g / gcd c g *)
      let rec try_from v =
        v <= min ghi.(p) (fdiv (t - smin.(p + 1)) c)
        && ((fits v && (x.(p) <- v; go (p + 1) (t - (c * v))))
           || try_from (if fits v && g > 0 then v + (g / gcd c g) else v + 1))
      in
      (g = 0 || t mod gcd c g = 0)
      && try_from (max glo.(p) (-fdiv (smax.(p + 1) - t) c))
  in
  if Array.exists2 ( > ) lo hi || not (go 0 t) then None
  else begin
    (* spread each merged value back over its members *)
    let k = Array.copy lo in
    Array.iteri
      (fun p (_, is) ->
        ignore
          (List.fold_left
             (fun left i ->
               let d = min left (span i) in
               k.(i) <- sign i * (lo' i + d);
               left - d)
             (x.(p) - glo.(p)) is))
      groups;
    Some k
  end

let outcome f =
  match f (ref 0) with
  | Some k -> Solution k
  | None -> No_solution
  | exception Exit -> Gave_up

let meet (b1, s1) (b2, s2) =
  let strides = Array.of_list (s1 @ List.map (fun (c, n) -> (-c, n)) s2) in
  let hi = Array.map (fun (_, n) -> n - 1) strides in
  let lo = Array.map (fun _ -> 0) hi in
  outcome (fun nodes -> search_box nodes (Array.map fst strides) ~lo ~hi (b2 - b1))

(* A collision is a difference [d <> 0], [|d_i| < n_i], with
   [sum c_i d_i + modulus * w = 0] for a wrap [w]; fix its first nonzero
   entry [d_p] positive. *)
let injective ?(modulus = 0) strides =
  let strides = Array.of_list strides in
  let n = Array.length strides in
  let reach = Array.fold_left (fun acc (c, k) -> acc + (abs c * (k - 1))) 0 strides in
  let wrap = if modulus > 0 then reach / modulus else 0 in
  let coeffs = Array.append (Array.map fst strides) [| modulus |] in
  let bounds p i =
    if i = n then (-wrap, wrap)
    else
      let e = snd strides.(i) in
      if i < p then (0, 0) else if i = p then (1, e - 1) else (1 - e, e - 1)
  in
  let rec from nodes p =
    if p = n || Array.exists (fun (_, k) -> k <= 0) strides then None
    else
      let lo = Array.init (n + 1) (fun i -> fst (bounds p i)) in
      let hi = Array.init (n + 1) (fun i -> snd (bounds p i)) in
      match search_box nodes coeffs ~lo ~hi 0 with
      | Some d -> Some (Array.sub d 0 n)
      | None -> from nodes (p + 1)
  in
  outcome (fun nodes -> from nodes 0)
