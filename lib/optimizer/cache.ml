type tuned = { rules : string list; tuned_us : float; base_us : float }

let m_hits = Obs.Metrics.counter "optimizer.plan_cache_hits"

let m_misses = Obs.Metrics.counter "optimizer.plan_cache_misses"

let table : (string, tuned) Hashtbl.t = Hashtbl.create 16

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let key ~pipeline ~rows ~cols ~device ~digest =
  Printf.sprintf "%s/%dx%d/%s/%s" pipeline rows cols device digest

let digest_with flags v =
  (* Closures can hide in kernel-free metadata; fall back to the
     structural hash rather than refusing to cache. *)
  match Marshal.to_string v flags with
  | s -> Digest.to_hex (Digest.string s)
  | exception _ -> Printf.sprintf "h%08x" (Hashtbl.hash v)

let digest v = digest_with [] v

let structural_digest v = digest_with [ Marshal.No_sharing ] v

(* Compiler-generated names carry a process-global counter ("x$123",
   or "x_123" once sanitised for device code), so two compilations of
   the same source never marshal to the same bytes.  The canonical
   digest renumbers those suffixes by first occurrence — keyed on the
   digits alone, so the "$" and "_" spellings of one counter value stay
   consistent — making the digest a function of plan structure only. *)
let canonical v =
  let ids = Hashtbl.create 16 in
  let canon s =
    let n = String.length s in
    let is_digit c = c >= '0' && c <= '9' in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      let c = s.[!i] in
      if (c = '$' || c = '_') && !i + 1 < n && is_digit s.[!i + 1] then begin
        let j = ref (!i + 1) in
        while !j < n && is_digit s.[!j] do
          incr j
        done;
        let digits = String.sub s (!i + 1) (!j - !i - 1) in
        let id =
          match Hashtbl.find_opt ids digits with
          | Some id -> id
          | None ->
              let id = Hashtbl.length ids in
              Hashtbl.add ids digits id;
              id
        in
        Buffer.add_char buf c;
        Buffer.add_string buf (string_of_int id);
        i := !j
      end
      else begin
        Buffer.add_char buf c;
        incr i
      end
    done;
    Buffer.contents buf
  in
  (* Deep-copy the value, rewriting every string it contains.  The walk
     only meets immutable plan data (records, variants, lists, strings,
     int arrays); float and custom blocks pass through untouched. *)
  let rec copy o =
    if Obj.is_int o then o
    else
      let tag = Obj.tag o in
      if tag = Obj.string_tag then Obj.repr (canon (Obj.obj o : string))
      else if tag < Obj.no_scan_tag then begin
        let sz = Obj.size o in
        let o' = Obj.new_block tag sz in
        for i = 0 to sz - 1 do
          Obj.set_field o' i (copy (Obj.field o i))
        done;
        o'
      end
      else o
  in
  let d =
    match digest (Obj.obj (copy (Obj.repr v))) with
    | d -> d
    | exception _ -> digest v
  in
  (d, canon)

let canonical_digest v = fst (canonical v)

let find_or_tune ~key f =
  match locked (fun () -> Hashtbl.find_opt table key) with
  | Some tuned ->
      Obs.Metrics.incr m_hits;
      tuned
  | None ->
      let tuned = f () in
      Obs.Metrics.incr m_misses;
      locked (fun () ->
          match Hashtbl.find_opt table key with
          | Some winner -> winner
          | None ->
              Hashtbl.replace table key tuned;
              tuned)

let size () = locked (fun () -> Hashtbl.length table)

let clear () = locked (fun () -> Hashtbl.reset table)
