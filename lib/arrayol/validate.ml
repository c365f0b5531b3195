open Ndarray

type issue = { loc : string; where : string; what : string }

let issue loc where fmt =
  Format.kasprintf (fun what -> { loc; where; what }) fmt

let check_tiling ~loc task acc ~output tiling =
  let where = Model.name task in
  let issue where fmt = issue loc where fmt in
  try
    let spec =
      if output then Model.out_tiler_spec task tiling
      else Model.in_tiler_spec task tiling
    in
    let acc =
      match Tiler.validate spec with
      | Ok () -> acc
      | Error m ->
          issue where "tiler on port %s: %s" tiling.Model.inner_port m :: acc
    in
    if output && not (Tiler.is_exact_cover spec) then
      issue where
        "output tiler on port %s is not an exact cover (single assignment \
         violated)"
        tiling.Model.inner_port
      :: acc
    else if (not output) && not (Tiler.covers_array spec) then
      issue where "input tiler on port %s does not read the whole array"
        tiling.Model.inner_port
      :: acc
    else acc
  with Invalid_argument m -> issue where "%s" m :: acc

let rec check ?(loc = "model") task =
  let check = check ~loc in
  let issue where fmt = issue loc where fmt in
  match task with
  | Model.Elementary { name; ip; inputs; outputs } ->
      let acc = [] in
      let acc =
        if not (Ip.mem ip) then [ issue name "unknown IP %s" ip ] else acc
      in
      let pattern_len ports =
        List.fold_left (fun n (p : Model.port) -> n + Shape.size p.pshape) 0 ports
      in
      if Ip.mem ip then begin
        let registered = Ip.find ip in
        let acc =
          if pattern_len inputs <> registered.Ip.pattern_in then
            issue name "IP %s expects %d input elements, ports carry %d" ip
              registered.Ip.pattern_in (pattern_len inputs)
            :: acc
          else acc
        in
        if pattern_len outputs <> registered.Ip.pattern_out then
          issue name "IP %s produces %d output elements, ports carry %d" ip
            registered.Ip.pattern_out (pattern_len outputs)
          :: acc
        else acc
      end
      else acc
  | Model.Repetitive
      { name; repetition; inner; in_tilings; out_tilings; inputs; outputs } ->
      let acc = check inner in
      let acc =
        if not (Shape.is_valid repetition) || Shape.size repetition = 0 then
          issue name "empty repetition space" :: acc
        else acc
      in
      let covered ports tilings select =
        List.filter
          (fun (p : Model.port) ->
            not (List.exists (fun t -> select t = p.Model.pname) tilings))
          ports
      in
      let acc =
        List.fold_left
          (fun acc (p : Model.port) ->
            issue name "inner input port %s has no tiler" p.Model.pname :: acc)
          acc
          (covered (Model.inputs inner) in_tilings (fun t ->
               t.Model.inner_port))
      in
      let acc =
        List.fold_left
          (fun acc (p : Model.port) ->
            issue name "inner output port %s has no tiler" p.Model.pname :: acc)
          acc
          (covered (Model.outputs inner) out_tilings (fun t ->
               t.Model.inner_port))
      in
      let acc =
        List.fold_left
          (fun acc t -> check_tiling ~loc task acc ~output:false t)
          acc in_tilings
      in
      let acc =
        List.fold_left
          (fun acc t -> check_tiling ~loc task acc ~output:true t)
          acc out_tilings
      in
      ignore inputs;
      ignore outputs;
      acc
  | Model.Compound { name; parts; connections; inputs; outputs } ->
      let acc = List.concat_map (fun (_, t) -> check t) parts in
      let find_part inst = List.assoc_opt inst parts in
      (* Endpoint sanity. *)
      let endpoint_ok ~driving ep =
        match ep with
        | Model.Boundary p ->
            let pool = if driving then inputs else outputs in
            Model.find_port pool p <> None
        | Model.Part (inst, p) -> (
            match find_part inst with
            | None -> false
            | Some t ->
                let pool =
                  if driving then Model.outputs t else Model.inputs t
                in
                Model.find_port pool p <> None)
      in
      let acc =
        List.fold_left
          (fun acc (c : Model.connection) ->
            let acc =
              if endpoint_ok ~driving:true c.Model.cfrom then acc
              else issue name "connection source not found" :: acc
            in
            if endpoint_ok ~driving:false c.Model.cto then acc
            else issue name "connection target not found" :: acc)
          acc connections
      in
      (* Single assignment: each consumer endpoint driven exactly once. *)
      let targets = List.map (fun c -> c.Model.cto) connections in
      let acc =
        List.fold_left
          (fun acc t ->
            if List.length (List.filter (( = ) t) targets) > 1 then
              issue name "port driven more than once (single assignment)"
              :: acc
            else acc)
          acc targets
      in
      (* Every part input must be driven. *)
      let acc =
        List.fold_left
          (fun acc (inst, t) ->
            List.fold_left
              (fun acc (p : Model.port) ->
                if List.mem (Model.Part (inst, p.Model.pname)) targets then acc
                else issue name "input %s.%s is never driven" inst p.Model.pname :: acc)
              acc (Model.inputs t))
          acc parts
      in
      (* Acyclicity via Kahn's algorithm over part dependencies. *)
      let deps inst =
        List.filter_map
          (fun (c : Model.connection) ->
            match (c.Model.cfrom, c.Model.cto) with
            | Model.Part (src, _), Model.Part (dst, _) when dst = inst ->
                Some src
            | _ -> None)
          connections
      in
      let rec topo done_ remaining =
        if remaining = [] then true
        else
          let ready, blocked =
            List.partition
              (fun inst -> List.for_all (fun d -> List.mem d done_) (deps inst))
              remaining
          in
          if ready = [] then false
          else topo (ready @ done_) blocked
      in
      if topo [] (List.map fst parts) then acc
      else issue name "dependence cycle between parts" :: acc

let pp_issue ppf i = Format.fprintf ppf "%s:%s: %s" i.loc i.where i.what
