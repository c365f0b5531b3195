(* Spans the driver records around the calls it makes into each layer,
   and the per-layer ledger derived from them.

   Spans are kept in memory by the process that records them and travel
   to the parent as JSON at the end of a segment; only the driver's own
   thread records, so no locking is needed. *)

type span = {
  seg : int;  (** segment (child process) that recorded the span *)
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  start : float;  (** seconds since the epoch *)
  stop : float;
  flow : int;  (** request id shared by a serving request's spans; 0 if none *)
}

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let current_parent () = match !stack with id :: _ -> id | [] -> -1

(* Run [f] inside a span named [name]; spans opened by [f] become its
   children.  A no-op wrapper when recording is off. *)
let span ?flow name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = current_parent () in
    let start = Unix.gettimeofday () in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        recorded :=
          {
            seg = 0;
            id;
            parent;
            name;
            start;
            stop = Unix.gettimeofday ();
            flow = Option.value ~default:0 flow;
          }
          :: !recorded)
      f
  end

let spans () = List.rev !recorded

(* ------------------------------------------------------------------ *)
(* Transport between processes                                         *)
(* ------------------------------------------------------------------ *)

let to_json spans =
  Obs.Json.Arr
    (List.map
       (fun s ->
         Obs.Json.Arr
           [
             Num (float_of_int s.id);
             Num (float_of_int s.parent);
             Str s.name;
             Num s.start;
             Num s.stop;
             Num (float_of_int s.flow);
           ])
       spans)

let of_json ~seg = function
  | Obs.Json.Arr items ->
      List.map
        (function
          | Obs.Json.Arr
              [ Num id; Num parent; Str name; Num start; Num stop; Num flow ] ->
              {
                seg;
                id = int_of_float id;
                parent = int_of_float parent;
                name;
                start;
                stop;
                flow = int_of_float flow;
              }
          | _ -> failwith "Ledger.of_json: malformed span")
        items
  | _ -> failwith "Ledger.of_json: spans must be an array"

(* ------------------------------------------------------------------ *)
(* Derived numbers                                                     *)
(* ------------------------------------------------------------------ *)

(* Self time of every span, keyed like the spans themselves. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.add children (s.seg, s.parent) (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      (s, Stats.self_time ~start:s.start ~stop:s.stop
            (Hashtbl.find_all children (s.seg, s.id))))
    spans

type row = {
  name : string;
  calls : int;
  total_s : float;
  self_s : float;
  p50_ms : float;
}

(* One row per span name, in first-seen order. *)
let rows spans =
  let order = ref [] and acc = Hashtbl.create 32 in
  List.iter
    (fun ((s : span), self) ->
      let prev =
        match Hashtbl.find_opt acc s.name with
        | Some v -> v
        | None ->
            order := s.name :: !order;
            []
      in
      Hashtbl.replace acc s.name ((s.stop -. s.start, self) :: prev))
    (self_times spans);
  List.rev_map
    (fun name ->
      let samples = Hashtbl.find acc name in
      {
        name;
        calls = List.length samples;
        total_s = List.fold_left (fun a (d, _) -> a +. d) 0. samples;
        self_s = List.fold_left (fun a (_, s) -> a +. s) 0. samples;
        p50_ms = 1000. *. Stats.median (List.map fst samples);
      })
    !order

(* Chrome trace-event JSON (loads in Perfetto and chrome://tracing):
   one process track per segment, complete ("X") events in
   microseconds, the request id in each slice's args. *)
let chrome_json (spans : span list) =
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity spans in
  let us t = Obs.Json.Num ((t -. t0) *. 1e6) in
  Obs.Json.render
    (Obs.Json.Obj
       [
         ( "traceEvents",
           Arr
             (List.map
                (fun (s : span) ->
                  Obs.Json.Obj
                    [
                      ("name", Str s.name);
                      ("ph", Str "X");
                      ("pid", Num (float_of_int s.seg));
                      ("tid", Num 0.);
                      ("ts", us s.start);
                      ("dur", Num (Float.max 0. ((s.stop -. s.start) *. 1e6)));
                      ("args", Obj [ ("request", Num (float_of_int s.flow)) ]);
                    ])
                spans) );
         ("displayTimeUnit", Str "ms");
       ])
