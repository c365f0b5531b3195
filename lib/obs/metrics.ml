type counter = { c_name : string; c_v : int Atomic.t }

type gauge = { g_name : string; g_v : int Atomic.t }

type histogram = {
  h_name : string;
  h_bounds : int array;  (* ascending upper bounds *)
  h_buckets : int Atomic.t array;  (* length = bounds + 1 (overflow) *)
  h_sum : int Atomic.t;
  h_count : int Atomic.t;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

(* Get-or-create registry.  Metrics are created once at module
   initialisation of their instrumentation site and then updated with
   plain atomic arithmetic, so the lock is never taken on a hot path. *)
let lock = Mutex.create ()

let registry : (string, metric) Hashtbl.t = Hashtbl.create 32

let intern name make classify =
  Mutex.lock lock;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.add registry name m;
        m
  in
  Mutex.unlock lock;
  match classify m with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Metrics: %s registered with another type" name)

let counter name =
  intern name
    (fun () -> Counter { c_name = name; c_v = Atomic.make 0 })
    (function Counter c -> Some c | _ -> None)

let add c n = ignore (Atomic.fetch_and_add c.c_v n)

let incr c = add c 1

let value c = Atomic.get c.c_v

let gauge name =
  intern name
    (fun () -> Gauge { g_name = name; g_v = Atomic.make 0 })
    (function Gauge g -> Some g | _ -> None)

let set g v = Atomic.set g.g_v v

let set_max g v =
  let rec go () =
    let cur = Atomic.get g.g_v in
    if v > cur && not (Atomic.compare_and_set g.g_v cur v) then go ()
  in
  go ()

let default_bounds = [| 10; 100; 1_000; 10_000; 100_000; 1_000_000 |]

let histogram ?(bounds = default_bounds) name =
  intern name
    (fun () ->
      Histogram
        {
          h_name = name;
          h_bounds = Array.copy bounds;
          h_buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0;
          h_count = Atomic.make 0;
        })
    (function Histogram h -> Some h | _ -> None)

let observe h v =
  let nb = Array.length h.h_bounds in
  let rec slot i = if i >= nb || v <= h.h_bounds.(i) then i else slot (i + 1) in
  ignore (Atomic.fetch_and_add h.h_buckets.(slot 0) 1);
  ignore (Atomic.fetch_and_add h.h_sum v);
  ignore (Atomic.fetch_and_add h.h_count 1)

let find name =
  Mutex.lock lock;
  let m = Hashtbl.find_opt registry name in
  Mutex.unlock lock;
  match m with
  | Some (Counter c) -> Some (Atomic.get c.c_v)
  | Some (Gauge g) -> Some (Atomic.get g.g_v)
  | Some (Histogram h) -> Some (Atomic.get h.h_count)
  | None -> None

let sorted_metrics () =
  Mutex.lock lock;
  let all = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> compare a b) all

let bound_label h i =
  if i < Array.length h.h_bounds then string_of_int h.h_bounds.(i) else "inf"

let histogram_snapshot name =
  Mutex.lock lock;
  let m = Hashtbl.find_opt registry name in
  Mutex.unlock lock;
  match m with
  | Some (Histogram h) ->
      Some
        ( Atomic.get h.h_count,
          Atomic.get h.h_sum,
          Array.to_list
            (Array.mapi
               (fun i b -> (bound_label h i, Atomic.get b))
               h.h_buckets) )
  | _ -> None

(* Prometheus metric names allow [a-zA-Z_:] plus digits after the first
   character; our dotted names map '.' (and anything else) to '_'. *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let render_plain () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name (Atomic.get c.c_v))
      | Gauge g -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name (Atomic.get g.g_v))
      | Histogram h ->
          Buffer.add_string buf
            (Printf.sprintf "%s.count %d\n%s.sum %d\n" name
               (Atomic.get h.h_count) name (Atomic.get h.h_sum));
          Array.iteri
            (fun i b ->
              Buffer.add_string buf
                (Printf.sprintf "%s.le.%s %d\n" name (bound_label h i) (Atomic.get b)))
            h.h_buckets)
    (sorted_metrics ());
  Buffer.contents buf

let render_prometheus () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, m) ->
      let pname = prom_name name in
      match m with
      | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s counter\n%s %d\n" pname pname
               (Atomic.get c.c_v))
      | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s gauge\n%s %d\n" pname pname
               (Atomic.get g.g_v))
      | Histogram h ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" pname);
          (* Exposition buckets are cumulative, ours are disjoint. *)
          let acc = ref 0 in
          Array.iteri
            (fun i b ->
              acc := !acc + Atomic.get b;
              let le =
                if i < Array.length h.h_bounds then bound_label h i
                else "+Inf"
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" pname le !acc))
            h.h_buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %d\n%s_count %d\n" pname
               (Atomic.get h.h_sum) pname (Atomic.get h.h_count)))
    (sorted_metrics ());
  Buffer.contents buf

let render_text ?(format = `Plain) () =
  match format with
  | `Plain -> render_plain ()
  | `Prometheus -> render_prometheus ()

let render_json () =
  let buf = Buffer.create 1024 in
  let scalars, histograms =
    List.partition_map
      (fun (name, m) ->
        match m with
        | Counter c -> Left (name, Atomic.get c.c_v)
        | Gauge g -> Left (name, Atomic.get g.g_v)
        | Histogram h -> Right (name, h))
      (sorted_metrics ())
  in
  Buffer.add_string buf "{\n  \"metrics\": {";
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "%s\n    %s: %d" (if i = 0 then "" else ",") (Json.escape name) v))
    scalars;
  Buffer.add_string buf "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (name, h) ->
      Buffer.add_string buf
        (Printf.sprintf "%s\n    %s: { \"count\": %d, \"sum\": %d, \"buckets\": ["
           (if i = 0 then "" else ",")
           (Json.escape name) (Atomic.get h.h_count) (Atomic.get h.h_sum));
      Array.iteri
        (fun j b ->
          Buffer.add_string buf
            (Printf.sprintf "%s{ \"le\": %s, \"count\": %d }"
               (if j = 0 then "" else ", ")
               (Json.escape (bound_label h j))
               (Atomic.get b)))
        h.h_buckets;
      Buffer.add_string buf "] }")
    histograms;
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (if Filename.check_suffix path ".json" then render_json ()
         else if Filename.check_suffix path ".prom" then
           render_text ~format:`Prometheus ()
         else render_text ()))
