type dialect = {
  name : string;
  keyword : string;
  params : Kir.param list -> string list;
  param_sep : string;
  prologue : Stdlib.Buffer.t -> int array -> unit;
}

let rec expr buf = function
  | Kir.Int n ->
      if n < 0 then Printf.bprintf buf "(%d)" n else Printf.bprintf buf "%d" n
  | Kir.Gid d -> Printf.bprintf buf "gid%d" d
  | Kir.Param p -> Stdlib.Buffer.add_string buf p
  | Kir.Var v -> Stdlib.Buffer.add_string buf v
  | Kir.Read (b, i) ->
      Printf.bprintf buf "%s[" b;
      expr buf i;
      Stdlib.Buffer.add_char buf ']'
  | Kir.Bin (((Kir.Min | Kir.Max) as op), a, b) ->
      Printf.bprintf buf "%s(" (Kir.binop_symbol op);
      expr buf a;
      Stdlib.Buffer.add_string buf ", ";
      expr buf b;
      Stdlib.Buffer.add_char buf ')'
  | Kir.Bin (op, a, b) ->
      Stdlib.Buffer.add_char buf '(';
      expr buf a;
      Printf.bprintf buf " %s " (Kir.binop_symbol op);
      expr buf b;
      Stdlib.Buffer.add_char buf ')'
  | Kir.Select (c, a, b) ->
      Stdlib.Buffer.add_char buf '(';
      expr buf c;
      Stdlib.Buffer.add_string buf " ? ";
      expr buf a;
      Stdlib.Buffer.add_string buf " : ";
      expr buf b;
      Stdlib.Buffer.add_char buf ')'

let rec stmt buf indent s =
  let pad = String.make indent ' ' in
  match s with
  | Kir.Let (v, e) ->
      Printf.bprintf buf "%sint %s = " pad v;
      expr buf e;
      Stdlib.Buffer.add_string buf ";\n"
  | Kir.Store (b, i, v) ->
      Printf.bprintf buf "%s%s[" pad b;
      expr buf i;
      Stdlib.Buffer.add_string buf "] = ";
      expr buf v;
      Stdlib.Buffer.add_string buf ";\n"
  | Kir.If (c, t, e) ->
      Printf.bprintf buf "%sif (" pad;
      expr buf c;
      Stdlib.Buffer.add_string buf ") {\n";
      List.iter (stmt buf (indent + 4)) t;
      if e <> [] then begin
        Printf.bprintf buf "%s} else {\n" pad;
        List.iter (stmt buf (indent + 4)) e
      end;
      Printf.bprintf buf "%s}\n" pad
  | Kir.For { var; lo; hi; body } ->
      Printf.bprintf buf "%sfor (int %s = " pad var;
      expr buf lo;
      Printf.bprintf buf "; %s < " var;
      expr buf hi;
      Printf.bprintf buf "; %s++) {\n" var;
      List.iter (stmt buf (indent + 4)) body;
      Printf.bprintf buf "%s}\n" pad

(* Work-item ids are linearised and decomposed with %-and-/ chains, as
   in the paper's Figure 11 ("tlIter[0]=iGID%%1080; ..."). *)
let linear_gids buf ~var grid =
  let stride = ref 1 in
  for d = Array.length grid - 1 downto 0 do
    if !stride = 1 then
      Printf.bprintf buf "    int gid%d = %s %% %d;\n" d var grid.(d)
    else if d = 0 then
      Printf.bprintf buf "    int gid%d = %s / %d;\n" d var !stride
    else
      Printf.bprintf buf "    int gid%d = (%s / %d) %% %d;\n" d var !stride
        grid.(d);
    stride := !stride * grid.(d)
  done

let kernel d ~grid (k : Kir.t) =
  if Ndarray.Shape.rank grid <> k.Kir.grid_rank then
    invalid_arg (d.name ^ ".kernel: grid rank");
  let buf = Stdlib.Buffer.create 512 in
  Printf.bprintf buf "%s %s(%s)\n{\n" d.keyword k.Kir.kname
    (String.concat d.param_sep (d.params k.Kir.params));
  d.prologue buf grid;
  List.iter (stmt buf 4) k.Kir.body;
  Stdlib.Buffer.add_string buf "}\n";
  Stdlib.Buffer.contents buf

let kernels d buf ks =
  List.iter
    (fun (k, grid) ->
      Stdlib.Buffer.add_string buf (kernel d ~grid k);
      Stdlib.Buffer.add_char buf '\n')
    ks

type 'r host_step =
  | Comment of string
  | Alloc of { dst : string; name : string; len : int }
  | Upload of { dst : string; src : string; len : int }
  | Download of { dst : string; src : string; len : int }
  | Fill of { dst : string; value : int; len : int }
  | Launch of {
      kernel : Kir.t;
      grid : Ndarray.Shape.t;
      args : (string * string) list;
      label : string;
      split : int;
    }
  | Route of { code : string; payload : 'r }
  | Free of { name : string }

let actuals d (k : Kir.t) args =
  List.map
    (fun (p : Kir.param) ->
      match List.assoc_opt p.Kir.pname args with
      | Some a -> (p, a)
      | None ->
          invalid_arg
            (Printf.sprintf "%s: missing actual for %s" d.name p.Kir.pname))
    k.Kir.params
