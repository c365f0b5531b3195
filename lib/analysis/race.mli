(** Race and coverage checker for groups of generator-kernels.

    A group is the set of kernels that together define one output
    array: the generator-kernels of one SAC [Device_withloop], or a
    single MDE kernel per output port.  [check_group ~out ~len
    ~full_cover kernels] proves that no two store events of the group
    (two work-items of one launch, or work-items of different kernels)
    write the same address of buffer [out], and — when [full_cover]
    holds — that the union of written addresses is exactly [0, len).

    Proven races and cover violations are [Error] findings; shapes the
    symbolic engine cannot decide degrade to [Warning]
    ([Unproven_disjoint] / [Unproven_cover]) or, past the thread
    budget, an [Analysis_skipped] note.  When the store addresses are
    not recognisably affine the checker falls back to evaluating every
    work-item with {!Gpu.Kir.iter_stores} (sound because generated
    kernels are address-data-independent; checked via
    {!Gpu.Kir.cost_data_independent}); an address that needs a scalar
    parameter, or a division by zero, aborts that check with an
    [Unproven_disjoint] warning.  Verdicts are memoised
    process-wide ({!Memo}) on all arguments. *)

val check_group :
  ?file:string ->
  out:string ->
  len:int ->
  full_cover:bool ->
  (Gpu.Kir.t * int array) list ->
  Finding.t list
