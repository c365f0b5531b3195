(** The ArrayOL tiler algebra.

    A tiler describes how a multidimensional array is covered by
    patterns (sub-arrays).  Following the paper (Section IV), a tiler
    consists of an origin vector [o], a fitting matrix [F] and a paving
    matrix [P]:

    - for each repetition index [r] (in the repetition space),
      the pattern's reference element is
      [ref_r = (o + P.r) mod s_array];
    - for each pattern index [i] (in the pattern shape), the array
      element of the pattern is [e_i = (ref_r + F.i) mod s_array].

    The same algebra backs the ArrayOL connectors of the Gaspard2 chain
    and the generic [input_tiler] / [output_tiler] SAC functions. *)

open Ndarray

type t = {
  origin : Index.t;  (** rank = rank of the tiled array *)
  fitting : Linalg.mat;  (** array-rank rows x pattern-rank columns *)
  paving : Linalg.mat;  (** array-rank rows x repetition-rank columns *)
}

type spec = {
  tiler : t;
  array_shape : Shape.t;
  pattern_shape : Shape.t;
  repetition_shape : Shape.t;
}
(** A tiler together with the three index spaces it connects, as in the
    paper's Figure 10 "TILER Specification" boxes. *)

val make : origin:Index.t -> fitting:Linalg.mat -> paving:Linalg.mat -> t

val spec :
  origin:Index.t ->
  fitting:Linalg.mat ->
  paving:Linalg.mat ->
  array_shape:Shape.t ->
  pattern_shape:Shape.t ->
  repetition_shape:Shape.t ->
  spec
(** Builds and {!validate}s a full specification.
    Raises [Invalid_argument] on rank mismatches. *)

val validate : spec -> (unit, string) result
(** Checks rank consistency: origin and the matrices' row counts match
    the array rank, fitting columns match the pattern rank, paving
    columns match the repetition rank, all shapes valid. *)

val ref_index : spec -> Index.t -> Index.t
(** [ref_index s r] is the (wrapped) reference element of repetition [r]. *)

val elem_index : spec -> rep:Index.t -> pat:Index.t -> Index.t
(** Array element addressed by pattern index [pat] of repetition [rep],
    wrapped modulo the array shape. *)

val gather : 'a Tensor.t -> spec -> rep:Index.t -> 'a Tensor.t
(** Extract the pattern (a tensor of [pattern_shape]) at one repetition. *)

val gather_all : 'a Tensor.t -> spec -> 'a Tensor.t
(** The intermediate array of shape [repetition_shape ++ pattern_shape]
    built by the paper's generic [input_tiler]. *)

val scatter : 'a Tensor.t -> spec -> rep:Index.t -> 'a Tensor.t -> unit
(** Write one pattern back into the array (in place). *)

val scatter_all : 'a Tensor.t -> spec -> 'a Tensor.t -> unit
(** The paper's generic [output_tiler]: scatter a
    [repetition ++ pattern] tensor into the array, in place. *)

val coverage : spec -> int Tensor.t
(** Multiplicity of each array element over the whole repetition space,
    by counting; the reference for the two predicates below. *)

val is_exact_cover : spec -> bool
(** Every array element touched exactly once — required of output
    tilers by ArrayOL's single-assignment rule.  Decided per array axis
    ({!Ndarray.Linalg.injective} modulo its extent) when no paving or
    fitting column moves two axes, else by {!coverage}. *)

val covers_array : spec -> bool
(** Every array element touched at least once; per axis, every residue
    is reached ({!Ndarray.Linalg.meet}), else by {!coverage}. *)

val pp_spec : Format.formatter -> spec -> unit
