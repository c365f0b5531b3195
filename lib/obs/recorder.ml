type entry = {
  e_request : int;
  e_trace : int;
  e_label : string;
  e_outcome : string;
  e_total_us : float;
  e_phases : (string * float) list;
}

(* A bounded ring of recent entries, overwritten oldest-first.  Unlike
   the tracer rings this one is shared (completions land from any
   worker domain), so recording takes a lock — at a few hundred entries
   and one record per completed request, contention is irrelevant next
   to a frame execution. *)
type t = {
  lock : Mutex.t;
  slots : entry option array;
  mutable count : int;  (* total entries ever recorded *)
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Obs.Recorder.create: capacity < 1";
  { lock = Mutex.create (); slots = Array.make capacity None; count = 0 }

let record t e =
  Mutex.lock t.lock;
  t.slots.(t.count mod Array.length t.slots) <- Some e;
  t.count <- t.count + 1;
  Mutex.unlock t.lock

let recorded t =
  Mutex.lock t.lock;
  let n = t.count in
  Mutex.unlock t.lock;
  n

(* Retained entries, oldest first. *)
let entries t =
  Mutex.lock t.lock;
  let cap = Array.length t.slots in
  let kept = min t.count cap in
  let first = t.count - kept in
  let es =
    List.filter_map
      (fun j -> t.slots.((first + j) mod cap))
      (List.init kept Fun.id)
  in
  Mutex.unlock t.lock;
  es

let slowest t n =
  let by_total a b = compare b.e_total_us a.e_total_us in
  let sorted = List.stable_sort by_total (entries t) in
  List.filteri (fun i _ -> i < n) sorted

let pp_us us =
  if us >= 1000. then Printf.sprintf "%8.2f ms" (us /. 1000.)
  else Printf.sprintf "%8.1f us" us

let render_entry e =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "request %d (trace %d, %s): %s, total %s\n" e.e_request
       e.e_trace e.e_label e.e_outcome
       (String.trim (pp_us e.e_total_us)));
  List.iter
    (fun (phase, us) ->
      let share =
        if e.e_total_us > 0. then 100. *. us /. e.e_total_us else 0.
      in
      Buffer.add_string buf
        (Printf.sprintf "    %-14s %s  %5.1f%%\n" phase (pp_us us) share))
    e.e_phases;
  Buffer.contents buf

let render_slowest ?(n = 5) t =
  match slowest t n with
  | [] -> "flight recorder: no completed requests retained\n"
  | es ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf
           "flight recorder: slowest %d of %d retained (%d recorded)\n"
           (List.length es) (List.length (entries t)) (recorded t));
      List.iter (fun e -> Buffer.add_string buf (render_entry e)) es;
      Buffer.contents buf
