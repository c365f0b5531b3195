(** ArrayOL -> SAC translation.

    Section VI of the paper translates the downscaler's ArrayOL tilers
    into SAC by hand: the generic [input_tiler]/[output_tiler]
    functions take the origin/fitting/paving triple as data, and a
    non-generic output tiler spells the scatter out as step-generators
    so that With-Loop Folding applies.  This module automates that
    translation for any single-input single-output repetitive task
    whose IP has a registered SAC body:

    - the input tiler is always the paper's generic [input_tiler],
      specialised by literal tiler arguments;
    - the task function is generated from the IP registry;
    - the output tiler is the generic for-loop nest, or (for
      axis-aligned tilers) the non-generic WITH-loop of Figure 7.

    The result is a complete SAC program whose [main] maps the task's
    input array to its output array — compile it with [Sac_cuda] and it
    reproduces, mechanically, the programs of Figures 4-7. *)

exception Unsupported of string

val register_ip :
  string -> (fname:string -> string) -> unit
(** [register_ip ip gen] installs a SAC task-function generator for an
    IP: [gen ~fname] must return the source of a function
    [int[*] fname(int[*] input, int[.] out_pattern, int[.] repetition)]
    computing one output tile from [input[rep]].  Raises
    [Invalid_argument] on duplicates.  Window-reduction generators for
    the paper's two IPs are pre-registered. *)

val translate : ?generic:bool -> Arrayol.Model.t -> string
(** SAC source for a repetitive task (default [generic:false]).
    Raises {!Unsupported} when the task is not repetitive, has more
    than one input or output, a pattern of rank <> 1, an unregistered
    IP, or (non-generic only) tilers that are not axis-aligned. *)
