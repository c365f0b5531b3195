(* Residency/transfer dataflow over a linearised plan.

   The SAC host walk (Sac_cuda.Host_walk, printed by the emitters and
   run by Sac_cuda.Exec) keeps each array host- and/or device-resident
   and inserts transfers implicitly: kernel launches
   force inputs to the device, host blocks copy back only the arrays
   they *declare* as reads.  This pass replays that discipline
   abstractly over a pipeline-neutral item language and flags
   - uses of names no earlier item defines,
   - host reads of device-only arrays that are missing from the
     declared read set (the forcing d2h never happens: stale data),
   - declared reads the host code never uses (a redundant transfer),
   - Copy/Const items whose target is never consumed. *)

type item =
  | Def of { target : string; label : string }
      (** host-side definition (constant array, ...) *)
  | Launch of {
      target : string;
      reads_device : string list;  (** inputs forced to the device *)
      reads_host : string list;
          (** host-resident inputs consumed while materialising
              (e.g. a partially-covered base array) *)
      label : string;
    }
  | Host of {
      declared : string list;  (** reads the engine will copy back *)
      actual : string list;  (** names the statements actually read *)
      writes : string list;
      label : string;
    }
  | Alias of { target : string; source : string; label : string }
      (** host copy that aliases the source on the device *)

type state = { host : bool; device : bool }

let check ?(file = "plan") ~params ~result items : Finding.t list =
  let findings = ref [] in
  let report f = findings := f :: !findings in
  let res : (string, state) Hashtbl.t = Hashtbl.create 16 in
  let defined n = Hashtbl.mem res n in
  let state n =
    match Hashtbl.find_opt res n with
    | Some s -> s
    | None -> { host = false; device = false }
  in
  List.iter (fun p -> Hashtbl.replace res p { host = true; device = false }) params;
  let require ~where n =
    if not (defined n) then
      report
        (Finding.v Finding.Undefined_use Finding.Error ~file ~where
           "reads %s before any item defines it" n)
  in
  (* uses of each name in later items, for dead-item detection *)
  let items_arr = Array.of_list items in
  let used_after i n =
    let reads_of = function
      | Def _ -> []
      | Launch { reads_device; reads_host; _ } -> reads_device @ reads_host
      | Host { actual; declared; _ } -> actual @ declared
      | Alias { source; _ } -> [ source ]
    in
    let rec go j =
      if j >= Array.length items_arr then false
      else if List.mem n (reads_of items_arr.(j)) then true
      else go (j + 1)
    in
    n = result || go (i + 1)
  in
  Array.iteri
    (fun i item ->
      match item with
      | Def { target; label } ->
          if not (used_after i target) then
            report
              (Finding.v Finding.Dead_item Finding.Warning ~file ~where:label
                 "defines %s, which no later item reads and which is not the \
                  result"
                 target);
          Hashtbl.replace res target { host = true; device = false }
      | Launch { target; reads_device; reads_host; label } ->
          List.iter
            (fun n ->
              require ~where:label n;
              if defined n then
                (* the launch uploads as needed: afterwards the input
                   is device-resident too *)
                Hashtbl.replace res n { (state n) with device = true })
            reads_device;
          List.iter
            (fun n ->
              require ~where:label n;
              (* the engine materialises these through the host copy,
                 performing any needed d2h itself *)
              if defined n then Hashtbl.replace res n { (state n) with host = true })
            reads_host;
          Hashtbl.replace res target { host = false; device = true }
      | Host { declared; actual; writes; label } ->
          List.iter
            (fun n ->
              require ~where:label n;
              if defined n then begin
                let s = state n in
                if s.device && not s.host && not (List.mem n declared) then
                  report
                    (Finding.v Finding.Missing_d2h Finding.Error ~file
                       ~where:label
                       "reads %s, which is device-only, but %s is not in the \
                        declared read set, so no device-to-host transfer is \
                        forced"
                       n n)
              end)
            actual;
          List.iter
            (fun n ->
              if defined n then begin
                let s = state n in
                if s.device && (not s.host) && not (List.mem n actual) then
                  report
                    (Finding.v Finding.Redundant_transfer Finding.Warning ~file
                       ~where:label
                       "declares a read of %s, forcing a device-to-host \
                        transfer, but never uses it"
                       n);
                Hashtbl.replace res n { s with host = true }
              end)
            declared;
          List.iter
            (fun n -> Hashtbl.replace res n { host = true; device = false })
            writes
      | Alias { target; source; label } ->
          require ~where:label source;
          if not (used_after i target) then
            report
              (Finding.v Finding.Dead_item Finding.Warning ~file ~where:label
                 "copies %s to %s, which no later item reads and which is \
                  not the result"
                 source target);
          let s = state source in
          Hashtbl.replace res target { host = true; device = s.device })
    items_arr;
  if not (defined result) then
    report
      (Finding.v Finding.Undefined_use Finding.Error ~file ~where:"result"
         "the plan result %s is never defined" result);
  List.rev !findings
