
let stepped_dim (space : Genspace.t) =
  let dims = ref [] in
  Array.iteri (fun d s -> if s > 1 then dims := d :: !dims) space.Genspace.step;
  match !dims with [ d ] -> Some d | _ -> None

let split_gen (g : Scalarize.sgen) =
  match stepped_dim g.Scalarize.space with
  | None -> [ g ]
  | Some d ->
      let space = g.Scalarize.space in
      let lb = space.Genspace.lb
      and ub = space.Genspace.ub
      and step = space.Genspace.step in
      (* Fewer than two members along the stepped dimension: nothing to
         peel. *)
      if lb.(d) + step.(d) >= ub.(d) then [ g ]
      else begin
        let first =
          {
            g with
            Scalarize.space =
              {
                space with
                Genspace.ub =
                  Array.mapi (fun i u -> if i = d then lb.(d) + 1 else u) ub;
              };
          }
        in
        let rest =
          {
            g with
            Scalarize.space =
              {
                space with
                Genspace.lb =
                  Array.mapi
                    (fun i l -> if i = d then l + step.(d) else l)
                    lb;
              };
          }
        in
        [ first; rest ]
      end

let normalize (w : Scalarize.swith) =
  match w.Scalarize.sgens with
  | [] | [ _ ] -> w
  | gens ->
      let n = List.length gens in
      let sgens =
        List.concat
          (List.mapi
             (fun i g -> if i = n - 1 then [ g ] else split_gen g)
             gens)
      in
      { w with Scalarize.sgens }
