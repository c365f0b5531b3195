(** Scheduling of ArrayOL models.

    "No rules are specified for executing an application described with
    ArrayOL, but a scheduling can be easily computed" (Section II-A):
    compound parts are levelised by their true data dependences (any
    order respecting them yields the same result — determinism), and
    each repetitive task is one data-parallel step whose degree is the
    size of its repetition space. *)

type step = {
  instance : string;  (** part instance path, '/'-separated *)
  task_name : string;
  parallel_degree : int;
      (** repetition-space size (1 for elementary tasks) *)
}

type t = step list list
(** Levels in dependence order; steps within a level are independent
    (task parallelism). *)

val compute : Model.t -> t
(** Raises [Invalid_argument] on cyclic compounds. *)

val total_parallelism : t -> int
(** Sum of parallel degrees — the "potential parallelism in the
    application" the specification must expose. *)
