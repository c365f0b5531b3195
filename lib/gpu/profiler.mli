(** Aggregation of a {!Timeline} into cudaprof-style tables.

    Reproduces the row format of the paper's Tables I and II:
    [Operation | #calls | GPU time (usec) | GPU time (%)].  Kernel
    events are grouped by their profiling label; the [#calls] column
    counts invocation rounds (events divided by the number of distinct
    kernels sharing the label), matching how the paper reports
    "H. Filter (3 kernels) ... 300 calls". *)

type row = {
  operation : string;
  calls : int;
  gpu_time_us : float;
  share_pct : float;  (** of the table's total *)
}

val rows : Timeline.t -> row list
(** Kernel groups in first-seen order, then host-to-device, then
    device-to-host copies.  Empty groups are omitted. *)

val total_us : row list -> float

val to_string : ?title:string -> row list -> string
