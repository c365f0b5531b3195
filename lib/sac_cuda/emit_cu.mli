(** CUDA C emission for compiled plans.

    Produces the [.cu] translation unit a user of the real SAC compiler
    would inspect: one [__global__] kernel per generator and a host
    [main] that performs the {!Host_walk} steps {!Exec} runs, with
    [cudaMalloc] / [cudaMemcpyAsync] / launch sequences, and frees the
    with-loop buffers still live at the end.  Host blocks appear as
    their SAC source in comments. *)

val source : name:string -> Plan.t -> string
