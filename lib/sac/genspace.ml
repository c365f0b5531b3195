type t = {
  lb : int array;
  ub : int array;
  step : int array;
  width : int array;
}

let error fmt = Format.kasprintf (fun m -> raise (Value.Value_error m)) fmt

let rank g = Array.length g.lb

let check g =
  let r = rank g in
  if Array.length g.ub <> r || Array.length g.step <> r
     || Array.length g.width <> r
  then error "generator component ranks disagree";
  Array.iteri
    (fun d s ->
      if s <= 0 then error "generator step must be positive, got %d" s
      else if g.width.(d) <= 0 then
        error "generator width must be positive, got %d" g.width.(d)
      else if g.width.(d) > s then
        error "generator width %d exceeds step %d" g.width.(d) s)
    g.step;
  g

let of_bounds ?step ?width lb ub =
  let r = Array.length lb in
  check
    {
      lb;
      ub;
      step = (match step with Some s -> s | None -> Array.make r 1);
      width = (match width with Some w -> w | None -> Array.make r 1);
    }

let resolve ~frame ~eval (g : Ast.gen) =
  let r = Array.length frame in
  let vec_of e =
    let v = Value.vector_exn (eval e) in
    if Array.length v <> r then
      error "generator bound rank %d does not match frame rank %d"
        (Array.length v) r
    else v
  in
  let lb =
    match g.Ast.lb with
    | Ast.Dot -> Array.make r 0
    | Ast.Bexpr e ->
        let v = vec_of e in
        if g.Ast.lb_incl then v else Array.map (fun x -> x + 1) v
  in
  let ub =
    match g.Ast.ub with
    | Ast.Dot -> Array.copy frame
    | Ast.Bexpr e ->
        let v = vec_of e in
        if g.Ast.ub_incl then Array.map (fun x -> x + 1) v else v
  in
  let step =
    match g.Ast.step with Some e -> vec_of e | None -> Array.make r 1
  in
  let width =
    match g.Ast.width with Some e -> vec_of e | None -> Array.make r 1
  in
  check { lb; ub; step; width }

let covers g idx =
  rank g = Array.length idx
  && begin
       let ok = ref true in
       for d = 0 to rank g - 1 do
         let i = idx.(d) in
         if i < g.lb.(d) || i >= g.ub.(d) then ok := false
         else if (i - g.lb.(d)) mod g.step.(d) >= g.width.(d) then ok := false
       done;
       !ok
     end

let iter g f =
  let r = rank g in
  let idx = Array.make r 0 in
  let rec go d =
    if d = r then f (Array.copy idx)
    else begin
      let base = ref g.lb.(d) in
      while !base < g.ub.(d) do
        let w = ref 0 in
        while !w < g.width.(d) && !base + !w < g.ub.(d) do
          idx.(d) <- !base + !w;
          go (d + 1);
          incr w
        done;
        base := !base + g.step.(d)
      done
    end
  in
  if Array.for_all (fun d -> g.ub.(d) > g.lb.(d)) (Array.init r Fun.id) then
    go 0

let count g =
  let n = ref 0 in
  iter g (fun _ -> incr n);
  !n

let dim_count_of g d =
  let n = ref 0 in
  let base = ref g.lb.(d) in
  while !base < g.ub.(d) do
    n := !n + min g.width.(d) (g.ub.(d) - !base);
    base := !base + g.step.(d)
  done;
  !n

let dim_counts g = Array.init (rank g) (dim_count_of g)

type dim_map =
  | Affine of { lb : int; step : int }
  | Blocked of { lb : int; step : int; width : int }

let dim_map g d =
  if g.width.(d) = 1 then Some (Affine { lb = g.lb.(d); step = g.step.(d) })
  else begin
    (* Every block must be complete for the closed form to hold. *)
    let ok = ref true in
    let base = ref g.lb.(d) in
    while !base < g.ub.(d) do
      if g.ub.(d) - !base < g.width.(d) then ok := false;
      base := !base + g.step.(d)
    done;
    if !ok then
      Some (Blocked { lb = g.lb.(d); step = g.step.(d); width = g.width.(d) })
    else None
  end
