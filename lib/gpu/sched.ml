(* Deterministic residency-aware sharding scheduler.

   Placement is greedy over a score combining the device's accumulated
   load, the caller's predicted kernel time on that device (from the
   static cost model) and the topology transfer cost of making every
   input resident there.  Ties break towards the lowest ordinal, and
   nothing here consults wall clocks or hash order on float keys, so a
   fixed task sequence always produces the same placement regardless
   of pool width. *)

type decision = {
  task : string;
  ordinal : int;
  predicted_us : float;  (* kernel time on the chosen device *)
  transfer_us : float;  (* migration/upload cost charged with it *)
  reason : string;
}

type t = {
  topology : Topology.t;
  load : float array;  (* accumulated score per ordinal *)
  residency : (string, int) Hashtbl.t;  (* buffer key -> ordinal *)
  streams : (string, int) Hashtbl.t;  (* stream id -> ordinal *)
  mutable rev_decisions : decision list;
  mutable migrations : int;
}

let create topology =
  {
    topology;
    load = Array.make (Topology.device_count topology) 0.0;
    residency = Hashtbl.create 32;
    streams = Hashtbl.create 16;
    rev_decisions = [];
    migrations = 0;
  }

let device_count t = Array.length t.load

let load t o =
  if o < 0 || o >= Array.length t.load then
    invalid_arg (Printf.sprintf "Sched.load: no device %d" o);
  t.load.(o)

let residency t key = Hashtbl.find_opt t.residency key

(* Cost of making [inputs] resident on [o]: resident buffers are free,
   buffers resident elsewhere pay the peer (or two-hop) link, fresh
   buffers pay the host upload link. *)
let transfer_cost t ~inputs o =
  List.fold_left
    (fun acc (key, bytes) ->
      acc
      +.
      match Hashtbl.find_opt t.residency key with
      | Some r when r = o -> 0.0
      | Some r ->
          Topology.transfer_time_us t.topology ~src:(Topology.Dev r)
            ~dst:(Topology.Dev o) ~bytes
      | None ->
          Topology.transfer_time_us t.topology ~src:Topology.Host
            ~dst:(Topology.Dev o) ~bytes)
    0.0 inputs

let argmin_score scores =
  let best = ref 0 in
  Array.iteri (fun i s -> if s < scores.(!best) then best := i) scores;
  !best

let place ?(inputs = []) ?(outputs = []) t ~name ~us_of =
  let n = device_count t in
  let kernel = Array.init n us_of in
  let xfer = Array.init n (transfer_cost t ~inputs) in
  let scores = Array.init n (fun o -> t.load.(o) +. kernel.(o) +. xfer.(o)) in
  let o = argmin_score scores in
  t.load.(o) <- scores.(o);
  List.iter (fun (key, _) -> Hashtbl.replace t.residency key o) inputs;
  List.iter (fun key -> Hashtbl.replace t.residency key o) outputs;
  let reason =
    let parts =
      Array.to_list
        (Array.mapi
           (fun i s ->
             Printf.sprintf "d%d=%.1f%s" i s
               (if xfer.(i) > 0.0 then
                  Printf.sprintf "(+%.1f xfer)" xfer.(i)
                else ""))
           scores)
    in
    String.concat " " parts
  in
  let d =
    { task = name; ordinal = o; predicted_us = kernel.(o);
      transfer_us = xfer.(o); reason }
  in
  t.rev_decisions <- d :: t.rev_decisions;
  d

let migrations t = t.migrations

(* A stream migrates off its device only when staying is measurably
   worse than the least-loaded device even after paying to move its
   working set: a hysteresis band keeps placements sticky so balanced
   load does not ping-pong sessions between devices. *)
let imbalance_factor = 1.5

let stream_device ?(working_set_bytes = 0) t ~stream ~us =
  let n = device_count t in
  let least =
    let best = ref 0 in
    for o = 1 to n - 1 do
      if t.load.(o) < t.load.(!best) then best := o
    done;
    !best
  in
  let chosen, migrated =
    match Hashtbl.find_opt t.streams stream with
    | None -> (least, false)
    | Some o when o = least -> (o, false)
    | Some o ->
        let move_cost =
          if working_set_bytes > 0 then
            Topology.transfer_time_us t.topology ~src:(Topology.Dev o)
              ~dst:(Topology.Dev least) ~bytes:working_set_bytes
          else 0.0
        in
        if t.load.(o) > (t.load.(least) +. move_cost +. us) *. imbalance_factor
        then (least, true)
        else (o, false)
  in
  if migrated then t.migrations <- t.migrations + 1;
  Hashtbl.replace t.streams stream chosen;
  t.load.(chosen) <- t.load.(chosen) +. us;
  (chosen, migrated)

let pp_decision ppf d =
  Format.fprintf ppf "%s -> dev%d (kernel %.1f us, xfer %.1f us; %s)" d.task
    d.ordinal d.predicted_us d.transfer_us d.reason
