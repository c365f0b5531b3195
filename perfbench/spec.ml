(* Drift check between BENCHMARK.json and what the driver produces.

   The driver owns the list of workloads and, for every metric, its
   name, unit and direction; BENCHMARK.json must name exactly the same
   things, every end-to-end metric must carry a bound, and every name
   must stay inside the character set later tooling relies on. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && String.for_all
       (fun c -> is_alnum c || String.contains "_/%.-" c)
       s

let keys = function
  | Obs.Json.Obj fields -> List.sort compare (List.map fst fields)
  | _ -> []

let str field obj =
  match Obs.Json.member field obj with
  | Some (Obs.Json.Str s) -> Some s
  | _ -> None

let num field obj =
  match Obs.Json.member field obj with
  | Some (Obs.Json.Num f) -> Some f
  | _ -> None

let items field json =
  match Obs.Json.member field json with Some (Obs.Json.Arr l) -> l | _ -> []

(* Every problem found, as one line each; [] when the file agrees with
   the driver. *)
let check ~workloads ~end_to_end ~per_layer json =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let expect_keys what obj want =
    if keys obj <> List.sort compare want then
      err "%s: keys must be exactly [%s]" what (String.concat ", " want)
  in
  expect_keys "BENCHMARK.json" json
    [
      "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer";
    ];
  (match num "run_seconds" json with
  | Some s when Float.is_integer s && s >= 1. && s <= 60. -> ()
  | _ -> err "run_seconds must be a whole number from 1 to 60");
  let seen = Hashtbl.create 64 in
  let named what obj =
    match str "name" obj with
    | None ->
        err "%s: entry without a name" what;
        None
    | Some n ->
        if not (valid_name n) then
          err "%s %S: name outside [A-Za-z0-9_.-]" what n;
        if Hashtbl.mem seen n then err "%s %S: name used twice" what n;
        Hashtbl.replace seen n ();
        Some n
  in
  let compare_sets what ~file ~driver =
    List.iter
      (fun n ->
        if not (List.mem n driver) then
          err "%s %S is in BENCHMARK.json but the driver does not produce it"
            what n)
      file;
    List.iter
      (fun n ->
        if not (List.mem n file) then
          err "%s %S is produced by the driver but missing from BENCHMARK.json"
            what n)
      driver
  in
  let file_workloads =
    List.filter_map
      (fun w ->
        expect_keys "workload" w [ "name"; "why" ];
        (match str "why" w with
        | Some why
          when why <> ""
               && String.length why <= 200
               && not (String.contains why '\n') ->
            ()
        | _ -> err "workload: why must be one line of 1 to 200 characters");
        named "workload" w)
      (items "workloads" json)
  in
  compare_sets "workload" ~file:file_workloads ~driver:workloads;
  let metrics what ~bounded driver =
    let want =
      [ "name"; "unit"; "better" ] @ if bounded then [ "bound" ] else []
    in
    let file =
      List.filter_map
        (fun m ->
          expect_keys what m want;
          match named what m with
          | None -> None
          | Some n ->
              (match str "unit" m with
              | Some u when valid_unit u -> ()
              | _ -> err "%s %S: missing or malformed unit" what n);
              (match str "better" m with
              | Some ("lower" | "higher") -> ()
              | _ -> err "%s %S: better must be lower or higher" what n);
              (if bounded then
                 match num "bound" m with
                 | Some b when b > 0. && b <= 0.25 -> ()
                 | _ -> err "%s %S: bound must be in (0, 0.25]" what n);
              (match List.find_opt (fun d -> d.name = n) driver with
              | Some d ->
                  if str "unit" m <> Some d.unit then
                    err "%s %S: the driver reports it in %s" what n d.unit;
                  if str "better" m <> Some (better_to_string d.better) then
                    err "%s %S: the driver says %s is better" what n
                      (better_to_string d.better)
              | None -> ());
              Some n)
        (items what json)
    in
    compare_sets what ~file ~driver:(List.map (fun d -> d.name) driver)
  in
  metrics "end_to_end" ~bounded:true end_to_end;
  metrics "per_layer" ~bounded:false per_layer;
  let bounds =
    List.filter_map
      (fun m -> Option.map (fun b -> (str "name" m, b)) (num "bound" m))
      (items "end_to_end" json)
  in
  (match List.assoc_opt (Some "setup_s") bounds with
  | None -> err "end_to_end must define setup_s"
  | Some b ->
      if List.exists (fun (_, b') -> b' > b) bounds then
        err "setup_s must carry the largest bound");
  List.rev !errors
