(** Proven per-thread access structure of kernel buffer reads.

    Complements {!Gpu.Kir.static_cost}'s sampled (but exact-per-sample)
    derivation with a symbolic one: read indices are recovered as
    affine forms over the split grid variables, constant-bound loops
    are unrolled, and when every consecutive per-thread read gap is a
    constant the Row/Column/Gather class and burst length are proven
    for {e every} thread of the launch.  Also derives the lane stride —
    the address distance between adjacent warp lanes — which is what
    coalescing physically depends on: a per-thread [`Column] walk with
    lane stride 1 (the vertical filter) is perfectly coalesced, while a
    per-thread [`Row] window with a large lane stride is not. *)

type read_site = {
  rs_buffer : string;
  rs_form : Affine.form;
  rs_guarded : bool;  (** read sits under a grid-dependent branch *)
}

type buffer_profile = {
  bp_buffer : string;
  bp_sites : int;  (** loop-expanded read sites per thread *)
  bp_guarded_sites : int;
  bp_class : [ `Row | `Column | `Gather ] option;
      (** proven class of the unguarded per-thread read sequence
          (thresholds shared with [Kir.classify_addrs]); [None] when
          some consecutive gap is not a constant *)
  bp_burst : float option;
      (** proven mean consecutive-address run length *)
  bp_lane_stride : int option;
      (** proven address delta between adjacent warp lanes, when every
          site agrees on the lane coefficient *)
}

type t = {
  a_buffers : buffer_profile list;  (** in kernel-parameter order *)
  a_exact : bool;  (** no guarded or abandoned reads anywhere *)
}

val analyze :
  ?scalars:(string * int) list -> grid:int array -> Gpu.Kir.t -> t option
(** [None] when the kernel's reads are not recognisably affine (the
    sampled classification of {!Gpu.Kir.static_cost} is then the only
    evidence). *)
