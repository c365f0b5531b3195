(* Transfer check over a generated host program.

   Values are numbered as they are created (an input, a host write, a
   kernel output, a fill); a host name or a device buffer holds one of
   them, and a Copy shares its source's number.  So a value counts as
   read whichever name or buffer it is read through, and "a live
   buffer already holds it" is a lookup by number.  A Download binds
   its host name afresh, so two downloads of one value are two
   bindings, each read or not on its own. *)

module C = Gpu.C_print

type access = {
  reads : string list;
  writes : string list;
  copies : (string * string) list;
}

let no_access = { reads = []; writes = []; copies = [] }

type value = { mutable used : bool }

(* [unread]: the step and host name of the Download that made this
   binding, until the host reads it through any name sharing it *)
type binding = {
  id : int;
  on_host : bool;
  mutable unread : (string * string) option;
}

type buffer = Allocated | Holds of int | Freed

let check ?(file = "host") ?(defines = fun _ -> None) ~inputs ~outputs ~route
    steps =
  let findings = ref [] in
  let report kind severity where fmt =
    Format.kasprintf
      (fun what ->
        findings := { Finding.kind; severity; file; where; what } :: !findings)
      fmt
  in
  let undefined where fmt = report Undefined_use Error where fmt in
  let values = Hashtbl.create 16 and names = Hashtbl.create 16 in
  let bufs = Hashtbl.create 16 in
  let fresh () =
    let id = Hashtbl.length values in
    Hashtbl.replace values id { used = false };
    id
  in
  let value id = Hashtbl.find values id in
  let bind n id on_host = Hashtbl.replace names n { id; on_host; unread = None } in
  let downloads = ref [] in
  let held id = Hashtbl.fold (fun _ b acc -> acc || b = Holds id) bufs false in
  (* host code that wrote values: dead when none of them is read *)
  let writers = ref [] in
  List.iter (fun n -> bind n (fresh ()) true) inputs;
  let host_read where n =
    match Hashtbl.find_opt names n with
    | None -> undefined where "reads %s before any step defines it" n
    | Some ({ id; on_host; _ } as b) ->
        (value id).used <- true;
        if on_host then b.unread <- None
        else if held id then
          report Missing_d2h Error where
            "reads %s, which only the device holds: no device-to-host \
             transfer precedes it" n
        else
          undefined where
            "reads %s, which neither the host nor a live buffer holds" n
  in
  let live where verb d =
    match Hashtbl.find_opt bufs d with
    | Some Freed -> undefined where "%s %s after it was freed" verb d; None
    | None -> undefined where "%s %s, which no Alloc bound" verb d; None
    | s -> s
  in
  let contents where d =
    match live where "reads" d with
    | Some (Holds id) -> Some id
    | Some _ -> undefined where "reads %s, which nothing has written" d; None
    | None -> None
  in
  let write where d id =
    if live where "writes" d <> None then Hashtbl.replace bufs d (Holds id)
  in
  List.iteri
    (fun i step ->
      let where =
        match step with
        | C.Launch { kernel; _ } ->
            Printf.sprintf "step%d(launch %s)" i kernel.Gpu.Kir.kname
        | _ -> Printf.sprintf "step%d" i
      in
      match step with
      | C.Comment _ -> ()
      | C.Alloc { dst; _ } -> Hashtbl.replace bufs dst Allocated
      | C.Upload { dst; src; _ } ->
          host_read where src;
          Option.iter
            (fun { id; _ } ->
              if held id then
                report Redundant_transfer Warning where
                  "uploads %s, which a live device buffer already holds" src;
              write where dst id)
            (Hashtbl.find_opt names src)
      | C.Download { dst; src; _ } ->
          Option.iter
            (fun id ->
              let b = { id; on_host = true; unread = Some (where, dst) } in
              Hashtbl.replace names dst b;
              downloads := b :: !downloads)
            (contents where src)
      | C.Fill { dst; _ } -> write where dst (fresh ())
      | C.Launch { kernel; args; _ } ->
          let actuals kind =
            List.filter_map
              (fun (p : Gpu.Kir.param) ->
                if p.kind <> kind then None
                else if not (List.mem_assoc p.pname args) then (
                  undefined where "has no actual for %s" p.pname;
                  None)
                else Some (List.assoc p.pname args))
              kernel.Gpu.Kir.params
          in
          List.iter
            (fun d ->
              Option.iter (fun id -> (value id).used <- true) (contents where d))
            (actuals Gpu.Kir.In_buffer);
          List.iter
            (fun d ->
              let id = fresh () in
              write where d id;
              Option.iter (fun n -> bind n id false) (defines d))
            (actuals Gpu.Kir.Out_buffer)
      | C.Route { payload; _ } ->
          let a = route payload in
          List.iter (host_read where) a.reads;
          List.iter
            (fun (target, source) ->
              match Hashtbl.find_opt names source with
              | Some b -> Hashtbl.replace names target b
              | None ->
                  undefined where "copies %s before any step defines it" source)
            a.copies;
          let ids = List.map (fun _ -> fresh ()) a.writes in
          List.iter2 (fun n id -> bind n id true) a.writes ids;
          if ids <> [] then writers := (where, a.writes, ids) :: !writers
      | C.Free { name } ->
          if live where "frees" name <> None then Hashtbl.replace bufs name Freed)
    steps;
  List.iter
    (fun n ->
      match Hashtbl.find_opt names n with
      | Some ({ id; on_host = true; _ } as b) ->
          (value id).used <- true;
          b.unread <- None
      | _ -> undefined "end" "the output %s is never on the host" n)
    outputs;
  List.iter
    (fun b ->
      Option.iter
        (fun (where, n) ->
          report Redundant_transfer Warning where
            "downloads %s, which nothing on the host reads" n)
        b.unread)
    (List.rev !downloads);
  List.iter
    (fun (where, ns, ids) ->
      if not (List.exists (fun id -> (value id).used) ids) then
        report Dead_item Warning where "writes %s, which nothing reads"
          (String.concat ", " ns))
    (List.rev !writers);
  List.rev !findings
