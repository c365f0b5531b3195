(** Experiment scales.

    The paper's evaluation runs 300 iterations over 1080x1920 frames
    (Section VIII); correctness validation and unit tests use a
    reduced geometry with the same packet structure (multiples of 8
    columns and 9 rows). *)

type t = { rows : int; cols : int; frames : int }

val paper : t
(** 1080 x 1920, 300 frames. *)

val validation : t
(** 72 x 64, 2 frames: large enough to exercise several packets per
    dimension, small enough to interpret. *)

val pixels : t -> int

val h_out_cols : t -> int

val v_out_rows : t -> int

val planes : int
(** 3 (RGB). *)
