(** Generator splitting (index-normalisation before kernel creation).

    The SAC compiler's folded downscaler WITH-loop has five generators
    for the horizontal filter and seven for the vertical one (paper,
    Figure 8 and Section VIII-C), not the three/four the output tiler
    was written with: each generator except the last is split into its
    first repetition slice plus the remainder along the stepped
    dimension.  Figure 8 shows exactly this shape —
    [(\[0,0\]..\[1080,1\])], [(\[0,1\]..\[1080,2\])] peeled off, bulks
    starting at columns 3, 4 and 2.

    The transformation is a pure partition of each generator's index
    space, so semantics are unchanged (property-tested); its effect is
    on the CUDA backend, which creates one kernel per generator and
    therefore launches 5 (respectively 7) kernels per plane, matching
    the kernel counts and launch overheads of Table II. *)

val normalize : Scalarize.swith -> Scalarize.swith
(** Split every generator but the last along its (unique) stepped
    dimension.  With-loops whose generators have no stepped dimension
    (or a single generator) are returned unchanged. *)
