(* doc_drift -- every bench snapshot a document names must be one the
   bench build keeps.

   Usage: doc_drift BENCH_DUNE DOC...

   Collects the BENCH_PR<n>.json names in the bench dune file outside
   its comments (the @bench-regress baselines and the @bench-snapshot
   target), then fails, naming the file and the snapshot, for every
   BENCH_PR<n>.json a document mentions that is not among them. *)

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

let () =
  match Array.to_list Sys.argv with
  | _ :: bench_dune :: docs ->
      let kept = snapshots (strip_comments (read bench_dune)) in
      let stale =
        List.concat_map
          (fun doc ->
            List.filter_map
              (fun s -> if List.mem s kept then None else Some (doc, s))
              (List.sort_uniq compare (snapshots (read doc))))
          docs
      in
      List.iter
        (fun (doc, s) ->
          Printf.printf "%s names %s, which %s neither gates nor snapshots\n"
            doc s bench_dune)
        stale;
      if stale <> [] then exit 1
  | _ ->
      prerr_endline "usage: doc_drift BENCH_DUNE DOC...";
      exit 2
