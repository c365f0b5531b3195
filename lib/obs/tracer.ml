type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_start_us : float;
  sp_dur_us : float;
  sp_flow : int;
}

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

let now_us () = Unix.gettimeofday () *. 1e6

(* One ring per domain, allocated lazily on the domain's first span and
   registered in a global list.  A domain only ever writes its own
   ring, so recording needs no lock; [dump] is meant to be called from
   the driver after parallel phases have finished (the pool's batches
   are always joined before anything is exported). *)

let capacity = 1 lsl 16

type ring = {
  tid : int;
  slots : span option array;
  mutable count : int;  (* total spans ever recorded on this ring *)
}

let rings_lock = Mutex.create ()

let rings : ring list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          tid = (Domain.self () :> int);
          slots = Array.make capacity None;
          count = 0;
        }
      in
      Mutex.lock rings_lock;
      rings := r :: !rings;
      Mutex.unlock rings_lock;
      r)

let emit ?(cat = "") ?flow name ~start_us ~dur_us =
  if enabled () then begin
    (* The flow id defaults to the ambient request context, so any span
       recorded inside Ctx.scoped is causally linked for free. *)
    let flow =
      match flow with Some f -> f | None -> Ctx.flow_id (Ctx.current ())
    in
    let r = Domain.DLS.get key in
    r.slots.(r.count land (capacity - 1)) <-
      Some
        {
          sp_name = name;
          sp_cat = cat;
          sp_tid = r.tid;
          sp_start_us = start_us;
          sp_dur_us = dur_us;
          sp_flow = flow;
        };
    r.count <- r.count + 1
  end

let start () = if enabled () then now_us () else 0.0

let finish ?cat ?flow name t0 =
  if t0 > 0.0 && enabled () then
    emit ?cat ?flow name ~start_us:t0 ~dur_us:(now_us () -. t0)

let with_span ?cat ?flow name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        emit ?cat ?flow name ~start_us:t0 ~dur_us:(now_us () -. t0))
      f
  end

let snapshot_rings () =
  Mutex.lock rings_lock;
  let rs = !rings in
  Mutex.unlock rings_lock;
  rs

let dump () =
  let spans_of r =
    let kept = min r.count capacity in
    let first = r.count - kept in
    List.filter_map
      (fun j -> r.slots.((first + j) land (capacity - 1)))
      (List.init kept Fun.id)
  in
  List.concat_map spans_of (snapshot_rings ())
  |> List.sort (fun a b ->
         match compare a.sp_start_us b.sp_start_us with
         | 0 -> compare (a.sp_tid, a.sp_name) (b.sp_tid, b.sp_name)
         | c -> c)

let clear () = List.iter (fun r -> r.count <- 0) (snapshot_rings ())
