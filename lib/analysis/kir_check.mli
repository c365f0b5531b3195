(** Interval-based verifier for {!Gpu.Kir} kernels.

    [check ~buffers ~grid k] abstractly interprets [k] once, seeding
    [Gid d] from [grid.(d)] and any [scalars] given exact values, and
    reports:
    - out-of-bounds reads/writes against the buffer [lengths]
      ([Error] when the whole index interval misses the buffer,
      [Warning] when only part of it may);
    - division or modulo by a (possibly) zero divisor;
    - parameters the kernel body never references;
    - structural validation failures and grid-rank mismatches.

    Buffers absent from [buffers] are not bounds-checked.  At most
    {!Config.findings_cap} findings are returned, followed by an
    [Analysis_skipped] note; every call, memoised or not, adds the
    dropped count to [analysis.findings_dropped].  Verdicts are memoised
    process-wide ({!Memo}) on all arguments and the cap. *)

val check :
  ?file:string ->
  ?scalars:(string * int) list ->
  buffers:(string * int) list ->
  grid:int array ->
  Gpu.Kir.t ->
  Finding.t list
