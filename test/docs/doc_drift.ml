(* doc_drift -- the documents may only name what the tree still has.

   Usage: doc_drift BENCH_DUNE LIB_DIR DOC...

   Two checks over every DOC, each failure naming the file:

   - snapshots: collects the BENCH_PR<n>.json names in the bench dune
     file outside its comments (the @bench-regress baseline) and fails
     for every BENCH_PR<n>.json a document mentions that is not among
     them;
   - library names: every three-part name [Lib.Module.name] inside a
     backquoted span or a fenced block, whose [Lib] is a library
     directory under LIB_DIR, must be a [val], [type] or record field
     of LIB_DIR/<lib>/<module>.mli (of the .ml, where a top-level [let]
     counts too, for a module without an interface).  Parameterised
     types ([type 'r host_step]) count. *)

let read path = In_channel.with_open_bin path In_channel.input_all

let is_digit c = c >= '0' && c <= '9'

(* Every "BENCH_PR<digits>.json" in [text], in order. *)
let snapshots text =
  let prefix = "BENCH_PR" and suffix = ".json" in
  let n = String.length text in
  let found = ref [] in
  let rec scan i =
    match String.index_from_opt text i 'B' with
    | None -> ()
    | Some i ->
        let j = i + String.length prefix in
        if j <= n && String.sub text i (String.length prefix) = prefix
        then begin
          let k = ref j in
          while !k < n && is_digit text.[!k] do
            incr k
          done;
          let e = !k + String.length suffix in
          if
            !k > j && e <= n
            && String.sub text !k (String.length suffix) = suffix
          then found := String.sub text i (e - i) :: !found
        end;
        scan (i + 1)
  in
  scan 0;
  List.rev !found

let strip_comments text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         match String.index_opt line ';' with
         | Some i -> String.sub line 0 i
         | None -> line)
  |> String.concat "\n"

let stale_snapshots ~bench_dune ~kept doc =
  List.filter_map
    (fun s ->
      if List.mem s kept then None
      else
        Some
          (Printf.sprintf "%s names %s, which %s does not gate"
             doc s bench_dune))
    (List.sort_uniq compare (snapshots (read doc)))

(* ---------- Library names ---------- *)

(* The code of a markdown text: each inline code span (one may wrap
   onto the next line) and each fenced block. *)
let code_spans text =
  let blocks = Buffer.create 256 in
  let unfenced =
    let fenced = ref false in
    String.split_on_char '\n' text
    |> List.map (fun line ->
           let l = String.trim line in
           if String.length l >= 3 && String.sub l 0 3 = "```" then begin
             fenced := not !fenced;
             ""
           end
           else if !fenced then begin
             Buffer.add_string blocks (line ^ "\n");
             ""
           end
           else line)
    |> String.concat "\n"
  in
  Buffer.contents blocks
  ::
  (match String.split_on_char '`' unfenced with
  | [] -> []
  | _ :: rest -> List.filteri (fun i _ -> i mod 2 = 0) rest)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'
  || c = '\''

(* The dotted identifier paths of a code span, each split into its
   components: "Gpu.Context.create ~ordinal" gives
   [["Gpu"; "Context"; "create"]; ["ordinal"]]. *)
let paths span =
  let n = String.length span in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident_char span.[i] then begin
      let j = ref i in
      while !j < n && (is_ident_char span.[!j] || span.[!j] = '.') do
        incr j
      done;
      go !j (String.split_on_char '.' (String.sub span i (!j - i)) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let is_upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

let is_lower s = s <> "" && ((s.[0] >= 'a' && s.[0] <= 'z') || s.[0] = '_')

(* Whether [name] is declared by a line "val name", "type name" or
   "type <params> name" (also after "and"), or is a record field
   "name :" (after an optional "{" or "mutable"), of [src]; with
   [~impl], a top-level "let name" counts too.  Only the part of a line
   before its first '=' is read, so the declared name is the last word
   of a type head. *)
let declares ~impl src name =
  let ident w =
    let k = ref 0 in
    while !k < String.length w && is_ident_char w.[!k] do
      incr k
    done;
    String.sub w 0 !k
  in
  String.split_on_char '\n' src
  |> List.exists (fun line ->
         let head = List.hd (String.split_on_char '=' line) in
         match List.filter (( <> ) "") (String.split_on_char ' ' head) with
         | ("val" | "external") :: w :: _ -> ident w = name
         | "let" :: "rec" :: w :: _ | "let" :: w :: _ ->
             impl && line.[0] = 'l' && ident w = name
         | ("type" | "and") :: (_ :: _ as rest) ->
             ident (List.nth rest (List.length rest - 1)) = name
         | ("{" | "mutable") :: w :: ":" :: _ | w :: ":" :: _ -> ident w = name
         | _ -> false)

let unresolved_names ~lib_dir doc =
  let interface lib m =
    let base = Filename.concat (Filename.concat lib_dir lib) m in
    if Sys.file_exists (base ^ ".mli") then Some (base ^ ".mli")
    else if Sys.file_exists (base ^ ".ml") then Some (base ^ ".ml")
    else None
  in
  code_spans (read doc)
  |> List.concat_map paths
  |> List.filter_map (function
       | lib :: m :: name :: _
         when is_upper lib && is_upper m && is_lower name
              && Sys.file_exists
                   (Filename.concat lib_dir (String.lowercase_ascii lib)) ->
           let l = String.lowercase_ascii lib
           and file = String.uncapitalize_ascii m in
           let full = String.concat "." [ lib; m; name ] in
           (match interface l file with
           | Some f
             when declares ~impl:(Filename.check_suffix f ".ml") (read f) name
             ->
               None
           | Some f ->
               Some
                 (Printf.sprintf "%s names `%s`, which %s does not declare" doc
                    full f)
           | None ->
               Some
                 (Printf.sprintf "%s names `%s`, but %s/%s has no module %s" doc
                    full lib_dir l m))
       | _ -> None)
  |> List.sort_uniq compare

let () =
  match Array.to_list Sys.argv with
  | _ :: bench_dune :: lib_dir :: docs ->
      let kept = snapshots (strip_comments (read bench_dune)) in
      let failures =
        List.concat_map
          (fun doc ->
            stale_snapshots ~bench_dune ~kept doc
            @ unresolved_names ~lib_dir doc)
          docs
      in
      List.iter print_endline failures;
      if failures <> [] then exit 1
  | _ ->
      prerr_endline "usage: doc_drift BENCH_DUNE LIB_DIR DOC...";
      exit 2
