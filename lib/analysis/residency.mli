(** Residency/transfer dataflow checker over a linearised plan.

    The item language is pipeline-neutral; [Sac_cuda.Verify] lowers
    [Sac_cuda.Plan.t] onto it.  The pass replays the implicit-transfer
    discipline of the SAC host walk ([Sac_cuda.Host_walk], which both
    the emitters print and the executor runs: launches force inputs to
    the device, host blocks copy back only their *declared* reads) and
    reports:
    - [Undefined_use] (error): an item reads a name no earlier item
      defines, or the result is never defined;
    - [Missing_d2h] (error): a host step actually reads a device-only
      array missing from its declared read set — the forcing transfer
      never happens and the host sees stale data;
    - [Redundant_transfer] (warning): a declared read that the host
      statements never use;
    - [Dead_item] (warning): a [Def]/[Alias] whose target is never
      consumed and is not the result. *)

type item =
  | Def of { target : string; label : string }
  | Launch of {
      target : string;
      reads_device : string list;
      reads_host : string list;
      label : string;
    }
  | Host of {
      declared : string list;
      actual : string list;
      writes : string list;
      label : string;
    }
  | Alias of { target : string; source : string; label : string }

val check :
  ?file:string ->
  params:string list ->
  result:string ->
  item list ->
  Finding.t list
