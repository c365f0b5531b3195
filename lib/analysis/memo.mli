(** Process-wide memo of pure checker verdicts, keyed by the MD5 digest
    of the checker's marshalled inputs (see {!Kir_check.check} and
    {!Race.check_group}).  Lookups bump [analysis.memo_hits] or
    [analysis.memo_misses]. *)

type 'a t

val create : unit -> 'a t

val find_or_compute : 'a t -> 'inputs -> (unit -> 'a) -> 'a
(** [find_or_compute t inputs f] returns the verdict stored under the
    digest of [inputs], computing and storing [f ()] on a miss.
    [inputs] must be plain data (no closures) and must include
    everything [f] reads. *)
