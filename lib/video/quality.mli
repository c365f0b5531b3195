(** Image-quality metrics for cross-checking pipeline outputs. *)

val frame_psnr : Frame.t -> Frame.t -> float
(** Minimum PSNR across the three colour planes. *)
