(* Process-wide verdict memo for the kernel-local checkers.

   The optimizer re-gates every candidate it builds, and the same
   kernels keep coming back: one move applied to different parent plans
   often rebuilds the same item, and the compile's final plan gate
   re-checks kernels the search already checked.  Both checkers are
   pure functions of their
   arguments, so a verdict is stored once per MD5 digest of the
   marshalled arguments.  The key is the digest, never the arguments:
   holding fused kernels alive in the table costs more memory than the
   verdicts save in time. *)

let m_hits = Obs.Metrics.counter "analysis.memo_hits"

let m_misses = Obs.Metrics.counter "analysis.memo_misses"

type 'a t = { lock : Mutex.t; table : (Digest.t, 'a) Hashtbl.t }

let create () = { lock = Mutex.create (); table = Hashtbl.create 64 }

(* Inputs are marshalled into a per-domain buffer that only ever grows:
   a fresh string per key (hundreds of KB for a fused kernel group)
   would add megabytes of short-lived garbage to peak RSS. *)
let scratch = Domain.DLS.new_key (fun () -> ref (Bytes.create 65536))

let rec key inputs =
  let buf = Domain.DLS.get scratch in
  match
    Marshal.to_buffer !buf 0 (Bytes.length !buf) inputs [ Marshal.No_sharing ]
  with
  | len -> Digest.subbytes !buf 0 len
  | exception Failure _ ->
      buf := Bytes.create (2 * Bytes.length !buf);
      key inputs

let find_or_compute t inputs f =
  let k = key inputs in
  Mutex.lock t.lock;
  let cached = Hashtbl.find_opt t.table k in
  Mutex.unlock t.lock;
  match cached with
  | Some v ->
      Obs.Metrics.incr m_hits;
      v
  | None ->
      (* Computed outside the lock: the checkers are pure, so a racing
         duplicate only repeats work. *)
      let v = f () in
      Obs.Metrics.incr m_misses;
      Mutex.lock t.lock;
      Hashtbl.replace t.table k v;
      Mutex.unlock t.lock;
      v
