exception Format_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Format_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let sexp_of_ints label l =
  Sexp.List (Sexp.Atom label :: List.map (fun n -> Sexp.Atom (string_of_int n)) l)

let sexp_of_shape label s = sexp_of_ints label (Array.to_list s)

let sexp_of_matrix label m =
  Sexp.List
    (Sexp.Atom label
    :: List.map
         (fun row ->
           Sexp.List
             (List.map (fun n -> Sexp.Atom (string_of_int n)) (Array.to_list row)))
         (Array.to_list m))

let sexp_of_port kind (p : Arrayol.Model.port) =
  Sexp.List
    [
      Sexp.Atom kind;
      Sexp.Atom p.Arrayol.Model.pname;
      Sexp.List
        (List.map
           (fun n -> Sexp.Atom (string_of_int n))
           (Array.to_list p.Arrayol.Model.pshape));
    ]

let sexp_of_ports inputs outputs =
  Sexp.List
    (Sexp.Atom "ports"
    :: (List.map (sexp_of_port "in") inputs
       @ List.map (sexp_of_port "out") outputs))

let sexp_of_tiling label (t : Arrayol.Model.tiling) =
  Sexp.List
    [
      Sexp.Atom label;
      Sexp.Atom t.Arrayol.Model.outer_port;
      Sexp.Atom t.Arrayol.Model.inner_port;
      sexp_of_ints "origin" (Array.to_list t.Arrayol.Model.tiler.Tiler.origin);
      sexp_of_matrix "fitting" t.Arrayol.Model.tiler.Tiler.fitting;
      sexp_of_matrix "paving" t.Arrayol.Model.tiler.Tiler.paving;
    ]

let sexp_of_endpoint = function
  | Arrayol.Model.Boundary p -> Sexp.List [ Sexp.Atom "boundary"; Sexp.Atom p ]
  | Arrayol.Model.Part (inst, p) ->
      Sexp.List [ Sexp.Atom "part"; Sexp.Atom inst; Sexp.Atom p ]

let rec task_to_sexp task =
  match task with
  | Arrayol.Model.Elementary { name; ip; inputs; outputs } ->
      Sexp.List
        [
          Sexp.Atom "elementary";
          Sexp.Atom name;
          Sexp.List [ Sexp.Atom "ip"; Sexp.Atom ip ];
          sexp_of_ports inputs outputs;
        ]
  | Arrayol.Model.Repetitive
      { name; repetition; inner; in_tilings; out_tilings; inputs; outputs } ->
      Sexp.List
        ([
           Sexp.Atom "repetitive";
           Sexp.Atom name;
           sexp_of_shape "repetition" repetition;
           sexp_of_ports inputs outputs;
           Sexp.List [ Sexp.Atom "inner"; task_to_sexp inner ];
         ]
        @ List.map (sexp_of_tiling "in-tiling") in_tilings
        @ List.map (sexp_of_tiling "out-tiling") out_tilings)
  | Arrayol.Model.Compound { name; parts; connections; inputs; outputs } ->
      Sexp.List
        ([ Sexp.Atom "compound"; Sexp.Atom name; sexp_of_ports inputs outputs ]
        @ List.map
            (fun (inst, t) ->
              Sexp.List [ Sexp.Atom "part"; Sexp.Atom inst; task_to_sexp t ])
            parts
        @ List.map
            (fun (c : Arrayol.Model.connection) ->
              Sexp.List
                [
                  Sexp.Atom "connect";
                  sexp_of_endpoint c.Arrayol.Model.cfrom;
                  sexp_of_endpoint c.Arrayol.Model.cto;
                ])
            connections)

let to_sexp (m : Marte.model) =
  Sexp.List
    ([
       Sexp.Atom "model";
       Sexp.Atom m.Marte.mname;
       Sexp.List
         (Sexp.Atom "platform"
         :: List.map
              (fun (r : Marte.resource) ->
                Sexp.List
                  [
                    Sexp.Atom
                      (match r.Marte.kind with
                      | Marte.Cpu -> "cpu"
                      | Marte.Gpu -> "gpu");
                    Sexp.Atom r.Marte.rname;
                  ])
              m.Marte.platform.Marte.presources);
       Sexp.List [ Sexp.Atom "application"; task_to_sexp m.Marte.application ];
     ]
    @ List.map
        (fun (inst, res) ->
          Sexp.List [ Sexp.Atom "allocate"; Sexp.Atom inst; Sexp.Atom res ])
        m.Marte.allocations)

let to_string m = Sexp.to_string (to_sexp m) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let expect_head name = function
  | Sexp.List (Sexp.Atom h :: rest) when h = name -> rest
  | s -> fail "expected a (%s ...) form, got %s" name (Sexp.to_string s)

let find_forms name items =
  List.filter_map
    (fun s ->
      match s with
      | Sexp.List (Sexp.Atom h :: rest) when h = name -> Some rest
      | _ -> None)
    items

let find_form name items =
  match find_forms name items with
  | [ rest ] -> rest
  | [] -> fail "missing (%s ...) form" name
  | _ -> fail "duplicate (%s ...) form" name

let shape_of_rest rest = Array.of_list (List.map Sexp.int_atom rest)

let matrix_of_rest rest =
  Array.of_list (List.map (fun row -> Array.of_list (Sexp.ints row)) rest)

let ports_of items =
  let rest = find_form "ports" items in
  let parse kind =
    List.filter_map
      (fun s ->
        match s with
        | Sexp.List [ Sexp.Atom k; Sexp.Atom pname; shape ] when k = kind ->
            Some
              {
                Arrayol.Model.pname;
                pshape = Array.of_list (Sexp.ints shape);
              }
        | _ -> None)
      rest
  in
  (parse "in", parse "out")

let tiling_of rest =
  match rest with
  | Sexp.Atom outer_port :: Sexp.Atom inner_port :: details ->
      let origin = shape_of_rest (find_form "origin" details) in
      let fitting = matrix_of_rest (find_form "fitting" details) in
      let paving = matrix_of_rest (find_form "paving" details) in
      let tiler =
        try Tiler.make ~origin ~fitting ~paving
        with Invalid_argument m -> fail "tiling %s: %s" inner_port m
      in
      { Arrayol.Model.outer_port; inner_port; tiler }
  | _ -> fail "malformed tiling"

let endpoint_of = function
  | Sexp.List [ Sexp.Atom "boundary"; Sexp.Atom p ] -> Arrayol.Model.Boundary p
  | Sexp.List [ Sexp.Atom "part"; Sexp.Atom inst; Sexp.Atom p ] ->
      Arrayol.Model.Part (inst, p)
  | s -> fail "malformed endpoint %s" (Sexp.to_string s)

let rec task_of_sexp s =
  match s with
  | Sexp.List (Sexp.Atom "elementary" :: Sexp.Atom name :: items) ->
      let ip =
        match find_form "ip" items with
        | [ Sexp.Atom ip ] -> ip
        | _ -> fail "elementary %s: malformed (ip ...)" name
      in
      let inputs, outputs = ports_of items in
      Arrayol.Model.Elementary { name; ip; inputs; outputs }
  | Sexp.List (Sexp.Atom "repetitive" :: Sexp.Atom name :: items) ->
      let repetition = shape_of_rest (find_form "repetition" items) in
      let inputs, outputs = ports_of items in
      let inner =
        match find_form "inner" items with
        | [ t ] -> task_of_sexp t
        | _ -> fail "repetitive %s: malformed (inner ...)" name
      in
      Arrayol.Model.Repetitive
        {
          name;
          repetition;
          inner;
          in_tilings = List.map tiling_of (find_forms "in-tiling" items);
          out_tilings = List.map tiling_of (find_forms "out-tiling" items);
          inputs;
          outputs;
        }
  | Sexp.List (Sexp.Atom "compound" :: Sexp.Atom name :: items) ->
      let inputs, outputs = ports_of items in
      let parts =
        List.map
          (fun rest ->
            match rest with
            | [ Sexp.Atom inst; t ] -> (inst, task_of_sexp t)
            | _ -> fail "compound %s: malformed (part ...)" name)
          (find_forms "part" items)
      in
      let connections =
        List.map
          (fun rest ->
            match rest with
            | [ f; t ] ->
                { Arrayol.Model.cfrom = endpoint_of f; cto = endpoint_of t }
            | _ -> fail "compound %s: malformed (connect ...)" name)
          (find_forms "connect" items)
      in
      Arrayol.Model.Compound { name; parts; connections; inputs; outputs }
  | s -> fail "expected a task, got %s" (Sexp.to_string s)

let of_sexp s =
  match expect_head "model" s with
  | Sexp.Atom mname :: items ->
      let platform =
        {
          Marte.presources =
            List.map
              (fun r ->
                match r with
                | Sexp.List [ Sexp.Atom "cpu"; Sexp.Atom rname ] ->
                    { Marte.rname; kind = Marte.Cpu }
                | Sexp.List [ Sexp.Atom "gpu"; Sexp.Atom rname ] ->
                    { Marte.rname; kind = Marte.Gpu }
                | s -> fail "malformed resource %s" (Sexp.to_string s))
              (find_form "platform" items);
        }
      in
      let application =
        match find_form "application" items with
        | [ t ] -> task_of_sexp t
        | _ -> fail "malformed (application ...)"
      in
      let allocations =
        List.map
          (fun rest ->
            match rest with
            | [ Sexp.Atom inst; Sexp.Atom res ] -> (inst, res)
            | _ -> fail "malformed (allocate ...)")
          (find_forms "allocate" items)
      in
      { Marte.mname; application; platform; allocations }
  | _ -> fail "malformed (model ...)"

let of_string src = of_sexp (Sexp.parse src)

let save path m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string m))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try of_string (really_input_string ic (in_channel_length ic))
      with Sexp.Parse_error m | Format_error m -> fail "%s: %s" path m)
