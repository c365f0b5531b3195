type t = Atom of string | List of t list

exception Parse_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | Some ';' ->
      while peek c <> None && peek c <> Some '\n' do
        advance c
      done;
      skip_ws c
  | _ -> ()

let is_atom_char ch =
  match ch with
  | '(' | ')' | ';' | ' ' | '\t' | '\n' | '\r' -> false
  | _ -> true

let rec parse_one c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input at offset %d" c.pos
  | Some '(' ->
      advance c;
      let items = ref [] in
      let rec loop () =
        skip_ws c;
        match peek c with
        | Some ')' -> advance c
        | None -> fail "unclosed parenthesis at offset %d" c.pos
        | Some _ ->
            items := parse_one c :: !items;
            loop ()
      in
      loop ();
      List (List.rev !items)
  | Some ')' -> fail "unexpected ')' at offset %d" c.pos
  | Some _ ->
      let start = c.pos in
      while
        match peek c with Some ch -> is_atom_char ch | None -> false
      do
        advance c
      done;
      Atom (String.sub c.src start (c.pos - start))

let parse src =
  let c = { src; pos = 0 } in
  let s = parse_one c in
  skip_ws c;
  if c.pos <> String.length src then
    fail "trailing input at offset %d" c.pos;
  s

let rec fits_inline = function
  | Atom _ -> true
  | List items -> List.length items <= 6 && List.for_all is_small items

and is_small = function
  | Atom _ -> true
  | List items -> List.for_all (function Atom _ -> true | _ -> false) items
                  && List.length items <= 6

let rec render buf level s =
  let pad = String.make (2 * level) ' ' in
  match s with
  | Atom a -> Buffer.add_string buf a
  | List items when fits_inline s ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ' ';
          render buf level item)
        items;
      Buffer.add_char buf ')'
  | List items ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf '\n';
            Buffer.add_string buf pad;
            Buffer.add_string buf "  "
          end;
          render buf (level + 1) item)
        items;
      Buffer.add_char buf ')'

let to_string ?(indent = 0) s =
  let buf = Buffer.create 256 in
  render buf indent s;
  Buffer.contents buf

let atom = function
  | Atom a -> a
  | List _ -> fail "expected an atom"

let int_atom s =
  let a = atom s in
  match int_of_string_opt a with
  | Some n -> n
  | None -> fail "expected an integer, got %s" a

let ints = function
  | List items -> List.map int_atom items
  | Atom _ -> fail "expected a list of integers"
