(* A device set over one topology: one context per ordinal, plus the
   buffer-migration primitive the scheduler's placements rely on. *)

type t = { topology : Topology.t; contexts : Context.t array }

let create ?mode topology =
  {
    topology;
    contexts =
      Array.init (Topology.device_count topology) (fun i ->
          Context.create ?mode ~ordinal:i ~topology (Topology.device topology i));
  }

let uniform ?mode ~devices profile =
  create ?mode (Topology.uniform ~devices profile)

let topology t = t.topology

let device_count t = Array.length t.contexts

let context t i =
  if i < 0 || i >= Array.length t.contexts then
    invalid_arg (Printf.sprintf "Cluster.context: no device %d" i);
  t.contexts.(i)

let contexts t = Array.to_list t.contexts

let transfer ?label t ~src ~dst (buf : Buffer.t) =
  if src = dst then buf
  else begin
    let sctx = context t src and dctx = context t dst in
    let len = Buffer.length buf in
    let moved = Context.alloc dctx ~name:buf.Buffer.name len in
    if Buffer.stored moved then
      Array.blit buf.Buffer.data 0 moved.Buffer.data 0 len;
    Context.free sctx buf;
    Context.record_d2d ?label dctx ~detail:buf.Buffer.name ~src
      ~bytes:(4 * len);
    moved
  end

let makespan_us t =
  Array.fold_left
    (fun acc ctx -> Float.max acc (Context.elapsed_us ctx))
    0.0 t.contexts

let merged_timeline t =
  let merged = Timeline.create () in
  Array.iter (fun ctx -> Timeline.append merged (Context.timeline ctx))
    t.contexts;
  merged

let reset t = Array.iter Context.reset t.contexts
