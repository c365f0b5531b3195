open Ndarray

exception Unsupported of string

let fail fmt = Format.kasprintf (fun m -> raise (Unsupported m)) fmt

(* ------------------------------------------------------------------ *)
(* Literal rendering                                                   *)
(* ------------------------------------------------------------------ *)

let vec_text a =
  "[" ^ String.concat ", " (List.map string_of_int (Array.to_list a)) ^ "]"

let matrix_text m =
  "["
  ^ String.concat ", "
      (List.map
         (fun row -> vec_text (Array.of_list row))
         (Linalg.to_lists m))
  ^ "]"

(* ------------------------------------------------------------------ *)
(* IP registry                                                         *)
(* ------------------------------------------------------------------ *)

(* The Figure 5 pattern: one tmpK window sum per output position, each
   combined as tmp/6 - tmp mod 6. *)
let window_reduction_body ~offsets ~fname =
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "int[*] %s(int[*] input, int[.] out_pattern, int[.] repetition)\n\
     {\n\
    \    output = with {\n\
    \        (. <= rep <= .) {\n\
    \            tile = genarray( out_pattern, 0);\n"
    fname;
  List.iteri
    (fun k off ->
      let reads =
        String.concat " +\n                   "
          (List.init 6 (fun t -> Printf.sprintf "input[rep][%d]" (off + t)))
      in
      Printf.bprintf buf "            tmp%d = %s;\n" k reads;
      Printf.bprintf buf "            tile[%d] = tmp%d / 6 - tmp%d %% 6;\n" k
        k k)
    offsets;
  Buffer.add_string buf
    "        } : tile;\n    } : genarray( repetition);\n    return( output);\n}\n";
  Buffer.contents buf

let registry : (string, fname:string -> string) Hashtbl.t = Hashtbl.create 8

let register_ip name gen =
  if Hashtbl.mem registry name then
    invalid_arg ("Arrayol_to_sac.register_ip: duplicate " ^ name);
  Hashtbl.replace registry name gen

let () =
  register_ip "HorizontalReduction"
    (fun ~fname -> window_reduction_body ~offsets:[ 0; 2; 5 ] ~fname);
  register_ip "VerticalReduction"
    (fun ~fname -> window_reduction_body ~offsets:[ 0; 2; 5; 8 ] ~fname)

(* ------------------------------------------------------------------ *)
(* Non-generic output tiler (Figure 7, generalised)                    *)
(* ------------------------------------------------------------------ *)

let nongeneric_output_tiler ~fname (spec : Tiler.spec) =
  let r = Shape.rank spec.Tiler.array_shape in
  let n = spec.Tiler.pattern_shape.(0) in
  let d =
    match Linalg.column_nonzeros spec.Tiler.tiler.Tiler.fitting 0 with
    | [ (d, 1) ] -> d
    | _ -> fail "output fitting is not a unit vector"
  in
  (* Map each array dimension to its paving stride. *)
  let strides = Array.make r 0 in
  for j = 0 to Linalg.cols spec.Tiler.tiler.Tiler.paving - 1 do
    match Linalg.column_nonzeros spec.Tiler.tiler.Tiler.paving j with
    | [ (row, s) ] when s > 0 ->
        if strides.(row) <> 0 then fail "paving columns collide";
        strides.(row) <- s
    | _ -> fail "output paving is not axis-aligned"
  done;
  if Array.exists (fun s -> s = 0) strides then
    fail "output paving does not cover every array dimension";
  let origin = spec.Tiler.tiler.Tiler.origin in
  let idx_vars = List.init r (fun i -> Printf.sprintf "i%d" i) in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "int[*] %s(int[*] output, int[*] input)\n{\n" fname;
  Buffer.add_string buf "    output = with {\n";
  for k = 0 to n - 1 do
    let lb =
      Array.init r (fun i -> origin.(i) + if i = d then k else 0)
    in
    let step = Array.copy strides in
    let rep_components =
      List.init r (fun i ->
          let var = Printf.sprintf "i%d" i in
          let shifted =
            if origin.(i) = 0 then var
            else Printf.sprintf "(%s - %d)" var origin.(i)
          in
          if strides.(i) = 1 then shifted
          else Printf.sprintf "%s / %d" shifted strides.(i))
    in
    Printf.bprintf buf "        (%s <= [%s] <= . step %s) : input[[%s, %d]];\n"
      (vec_text lb)
      (String.concat ", " idx_vars)
      (vec_text step)
      (String.concat ", " rep_components)
      k
  done;
  Buffer.add_string buf
    "    } : modarray( output);\n    return( output);\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Translation                                                         *)
(* ------------------------------------------------------------------ *)

let translate ?(generic = false) task =
  match task with
  | Arrayol.Model.Repetitive
      { repetition; inner; in_tilings; out_tilings; inputs; outputs; _ } ->
      let ip_name =
        match inner with
        | Arrayol.Model.Elementary { ip; _ } -> ip
        | _ -> fail "inner task must be elementary"
      in
      let gen_task =
        match Hashtbl.find_opt registry ip_name with
        | Some g -> g
        | None -> fail "no SAC body registered for IP %s" ip_name
      in
      let in_tiling, out_tiling =
        match (in_tilings, out_tilings, inputs, outputs) with
        | [ i ], [ o ], [ _ ], [ _ ] -> (i, o)
        | _ -> fail "only single-input single-output tasks are translated"
      in
      let in_spec = Arrayol.Model.in_tiler_spec task in_tiling in
      let out_spec = Arrayol.Model.out_tiler_spec task out_tiling in
      if
        Shape.rank in_spec.Tiler.pattern_shape <> 1
        || Shape.rank out_spec.Tiler.pattern_shape <> 1
      then fail "only rank-1 patterns are translated";
      let sanitize name =
        String.map
          (fun c ->
            match c with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
            | _ -> '_')
          name
      in
      let task_fname = "task_" ^ sanitize ip_name in
      let buf = Buffer.create 2048 in
      Buffer.add_string buf Sac.Programs.input_tiler;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (gen_task ~fname:task_fname);
      Buffer.add_char buf '\n';
      if generic then begin
        Buffer.add_string buf Sac.Programs.generic_output_tiler;
        Buffer.add_char buf '\n'
      end
      else begin
        Buffer.add_string buf
          (nongeneric_output_tiler ~fname:"output_tiler_ng" out_spec);
        Buffer.add_char buf '\n'
      end;
      let in_shape = in_spec.Tiler.array_shape in
      let out_shape = out_spec.Tiler.array_shape in
      let dims a =
        String.concat "," (List.map string_of_int (Array.to_list a))
      in
      Printf.bprintf buf "int[%s] main(int[%s] frame)\n{\n" (dims out_shape)
        (dims in_shape);
      Printf.bprintf buf
        "    gathered = input_tiler(frame, %s, %s, %s,\n\
        \                           %s, %s);\n"
        (vec_text in_spec.Tiler.pattern_shape)
        (vec_text repetition)
        (vec_text in_spec.Tiler.tiler.Tiler.origin)
        (matrix_text in_spec.Tiler.tiler.Tiler.fitting)
        (matrix_text in_spec.Tiler.tiler.Tiler.paving);
      Printf.bprintf buf "    tiles = %s(gathered, %s, %s);\n" task_fname
        (vec_text out_spec.Tiler.pattern_shape)
        (vec_text repetition);
      Printf.bprintf buf "    out_init = genarray(%s, 0);\n"
        (vec_text out_shape);
      if generic then
        Printf.bprintf buf
          "    result = generic_output_tiler(out_init, tiles, %s, %s,\n\
          \                                  %s, %s, %s);\n"
          (vec_text out_spec.Tiler.pattern_shape)
          (vec_text repetition)
          (vec_text out_spec.Tiler.tiler.Tiler.origin)
          (matrix_text out_spec.Tiler.tiler.Tiler.fitting)
          (matrix_text out_spec.Tiler.tiler.Tiler.paving)
      else
        Buffer.add_string buf
          "    result = output_tiler_ng(out_init, tiles);\n";
      Buffer.add_string buf "    return( result);\n}\n";
      Buffer.contents buf
  | _ -> fail "only repetitive tasks are translated"
