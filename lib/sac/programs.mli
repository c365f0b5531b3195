(** The paper's SAC downscaler sources (Figures 4-7), parameterised by
    frame size.

    Two variants per filter, mirroring Section VI:
    - {b generic}: tilers passed as data ([origin]/[fitting]/[paving]
      arrays); the output tiler is the for-loop nest of Figure 6, which
      WLF cannot fold and the CUDA backend cannot parallelise;
    - {b non-generic}: the output tiler is the step-generator WITH-loop
      of Figure 7, which folds with the input tiler and task into a
      single WITH-loop (Figure 8).

    All entry points are a function [main] from the input plane to the
    filtered plane. *)

val input_tiler : string
(** Figure 4, verbatim (modulo whitespace). *)

val generic_output_tiler : string
(** Figure 6 (with the paper's [org] typo fixed to [origin]). *)

val task_h : string
(** Figure 5: 3 output positions, windows at offsets 0/2/5 of the
    11-point pattern. *)

val nongeneric_output_tiler_h : string
(** Figure 7. *)

val horizontal : generic:bool -> rows:int -> cols:int -> string
(** Complete program for the horizontal filter on a [rows x cols]
    plane.  [cols] must be a multiple of 8. *)

val vertical : generic:bool -> rows:int -> cols:int -> string
(** Vertical filter; [rows] must be a multiple of 9. *)

val downscaler : generic:bool -> rows:int -> cols:int -> string
(** Both filters chained: [main] maps [rows x cols] to
    [(rows/9*4) x (cols/8*3)]. *)

val downscaler_labels : unit -> string -> string
(** A fresh [label_of] for compiling {!downscaler}: the profiling
    labels of the paper's tables, ["H. Filter"] then ["V. Filter"] for
    the first two device loops, ["Kernel"] after. *)
