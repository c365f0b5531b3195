(** Synthetic video source.

    Substitutes for the Gaspard2 FrameGenerator IP, which read frames
    from a file or camera with OpenCV: we have neither in this
    environment, so frames are synthesised deterministically from the
    frame number.  The content (moving diagonal gradients plus a
    deterministic hash texture, different per channel) exercises the
    same code paths and defeats accidental symmetry in filter bugs. *)

val frame : Format.t -> int -> Frame.t
(** [frame fmt n] is the [n]-th frame of the synthetic sequence;
    pixel values are in 0..255 and depend on position, channel and
    [n]. *)

val stream : ?start:int -> Format.t -> Frame.t Seq.t
(** The unbounded frame sequence from frame [start] (default 0) on —
    the shape a live stream source has; the serving load generator
    gives each synthetic stream its own [start] offset. *)
