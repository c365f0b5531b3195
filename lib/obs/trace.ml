type value = I of int | F of float | S of string

type device_event = {
  de_track : string;
  de_name : string;
  de_cat : string;
  de_ts_us : float;
  de_dur_us : float;
  de_args : (string * value) list;
}

(* The modelled clock starts at 0 and is printed with fixed precision,
   so device tracks are byte-identical whenever the modelled event
   stream is (notably across --domains settings).  Host spans use the
   wall clock, rebased to the earliest span so Perfetto shows both
   clock domains from t=0. *)
let pp_us f = Printf.sprintf "%.3f" f

let pp_value = function
  | I i -> string_of_int i
  | F f -> pp_us f
  | S s -> Json.escape s

let add_args buf args =
  Buffer.add_string buf ", \"args\": {";
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s: %s" (if i = 0 then "" else ", ") (Json.escape k)
           (pp_value v)))
    args;
  Buffer.add_string buf "}"

let add_event buf ~first ~name ~cat ~ph ~ts ~pid ~tid ?id ?dur ?args () =
  if not !first then Buffer.add_string buf ",\n";
  first := false;
  Buffer.add_string buf
    (Printf.sprintf "    { \"name\": %s, \"cat\": %s, \"ph\": \"%s\", \"ts\": %s, \"pid\": %d, \"tid\": %d"
       (Json.escape name) (Json.escape cat) ph (pp_us ts) pid tid);
  (match id with
  | Some i -> Buffer.add_string buf (Printf.sprintf ", \"id\": %d" i)
  | None -> ());
  (match dur with
  | Some d -> Buffer.add_string buf (Printf.sprintf ", \"dur\": %s" (pp_us d))
  | None -> ());
  (match args with Some a -> add_args buf a | None -> ());
  Buffer.add_string buf " }"

let add_meta buf ~first ~name ~pid ?tid ~value () =
  if not !first then Buffer.add_string buf ",\n";
  first := false;
  Buffer.add_string buf
    (Printf.sprintf "    { \"name\": %s, \"ph\": \"M\", \"pid\": %d%s, \"args\": { \"name\": %s } }"
       (Json.escape name) pid
       (match tid with Some t -> Printf.sprintf ", \"tid\": %d" t | None -> "")
       (Json.escape value))

let render ?(device = []) ?(spans = []) () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  let first = ref true in
  (* Device track groups: one process per group, one thread per track,
     numbered in order of first appearance. *)
  List.iteri
    (fun i (group_name, events) ->
      let pid = i + 1 in
      add_meta buf ~first ~name:"process_name" ~pid
        ~value:(Printf.sprintf "device: %s (modelled clock)" group_name) ();
      add_meta buf ~first ~name:"process_sort_index" ~pid ~value:(string_of_int pid) ();
      let tracks = ref [] in
      let tid_of track =
        match List.assoc_opt track !tracks with
        | Some tid -> tid
        | None ->
            let tid = List.length !tracks + 1 in
            tracks := !tracks @ [ (track, tid) ];
            add_meta buf ~first ~name:"thread_name" ~pid ~tid ~value:track ();
            tid
      in
      List.iter
        (fun e ->
          let tid = tid_of e.de_track in
          add_event buf ~first ~name:e.de_name ~cat:e.de_cat ~ph:"X"
            ~ts:e.de_ts_us ~pid ~tid ~dur:e.de_dur_us ~args:e.de_args ())
        events)
    device;
  (* Host wall-clock track group: one thread per recording domain. *)
  (match spans with
  | [] -> ()
  | spans ->
      let pid = List.length device + 1 in
      add_meta buf ~first ~name:"process_name" ~pid ~value:"host (OCaml, wall clock)" ();
      let t0 =
        List.fold_left
          (fun acc (s : Tracer.span) -> Float.min acc s.Tracer.sp_start_us)
          infinity spans
      in
      let tids =
        List.sort_uniq compare (List.map (fun s -> s.Tracer.sp_tid) spans)
      in
      List.iter
        (fun tid ->
          add_meta buf ~first ~name:"thread_name" ~pid ~tid
            ~value:
              (if tid = 0 then "domain 0 (main)"
               else Printf.sprintf "domain %d (pool worker)" tid)
            ())
        tids;
      List.iter
        (fun (s : Tracer.span) ->
          add_event buf ~first ~name:s.Tracer.sp_name ~cat:s.Tracer.sp_cat
            ~ph:"X"
            ~ts:(s.Tracer.sp_start_us -. t0)
            ~pid ~tid:s.Tracer.sp_tid ~dur:s.Tracer.sp_dur_us
            ?args:
              (if s.Tracer.sp_flow > 0 then
                 Some [ ("flow", I s.Tracer.sp_flow) ]
               else None)
            ())
        spans;
      (* Causal flow arrows: one Perfetto flow per request context.  A
         flow's spans are sorted by start time; the earliest binds the
         flow start ("s"), every later one a step ("t"), each anchored
         at its slice's start timestamp on the slice's own track.
         Single-span flows draw no arrow and are skipped. *)
      let flows : (int, (float * int) list ref) Hashtbl.t =
        Hashtbl.create 64
      in
      List.iter
        (fun (s : Tracer.span) ->
          if s.Tracer.sp_flow > 0 then begin
            let anchor = (s.Tracer.sp_start_us -. t0, s.Tracer.sp_tid) in
            match Hashtbl.find_opt flows s.Tracer.sp_flow with
            | Some l -> l := anchor :: !l
            | None -> Hashtbl.add flows s.Tracer.sp_flow (ref [ anchor ])
          end)
        spans;
      let flow_ids =
        List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) flows [])
      in
      List.iter
        (fun id ->
          let anchors = List.sort compare !(Hashtbl.find flows id) in
          match anchors with
          | [] | [ _ ] -> ()
          | anchors ->
              List.iteri
                (fun i (ts, tid) ->
                  add_event buf ~first ~name:"request" ~cat:"flow"
                    ~ph:(if i = 0 then "s" else "t")
                    ~ts ~pid ~tid ~id ())
                anchors)
        flow_ids);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
