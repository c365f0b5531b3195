open Ndarray
module C = Gpu.C_print

type t = {
  kernels : (Gpu.Kir.t * int array) list;
  steps : Plan.item C.host_step list;
  downloads : (string * int array) list;
}

let dev name = "d_" ^ Kernelize.sanitize name

let host name = "h_" ^ Kernelize.sanitize name

let comment text = Printf.sprintf "    /* %s */" text

let statement_count stmts =
  comment
    (Printf.sprintf "host-resident SAC code (%d statements)"
       (List.length stmts))

(* What the walk knows of an array at the current step: whether the
   host holds its value, and which device buffer (if any) does.  Copy
   targets share their source's buffer. *)
type var = { mutable on_host : bool; mutable buffer : string option; shape : int array }

let fail fmt = Printf.ksprintf invalid_arg ("sac_cuda: " ^^ fmt)

(* Liveness: the index of the last item that can read each array, per
   alias class (Copy items join their target's class to the source's);
   the result's class lives to the end. *)
let dies_after (plan : Plan.t) =
  let rep : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let rec find n =
    match Hashtbl.find_opt rep n with Some p when p <> n -> find p | _ -> n
  in
  List.iter
    (function
      | Plan.Copy { target; source } ->
          let rt = find target and rs = find source in
          if rt <> rs then Hashtbl.replace rep rt rs
      | _ -> ())
    plan.Plan.items;
  let last : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let use i n = Hashtbl.replace last (find n) i in
  List.iteri
    (fun i item ->
      match item with
      | Plan.Device_withloop { swith; full_cover; _ } -> (
          List.iter (fun (a, _) -> use i a) swith.Sac.Scalarize.arrays;
          match (full_cover, swith.Sac.Scalarize.base) with
          | false, Sac.Scalarize.Base_array b -> use i b
          | _ -> ())
      | Plan.Host_block { reads; writes; _ } ->
          List.iter (use i) reads;
          List.iter (use i) writes
      | Plan.Copy { source; _ } -> use i source
      | Plan.Const_array _ -> ())
    plan.Plan.items;
  Hashtbl.replace last (find plan.Plan.result) max_int;
  fun i name -> Hashtbl.find_opt last (find name) = Some i

let of_plan ?(host_block = statement_count) ?(label_withloops = false)
    ?(liveness = false) (plan : Plan.t) =
  let vars : (string, var) Hashtbl.t = Hashtbl.create 16 in
  let declare name shape =
    let v = { on_host = false; buffer = None; shape } in
    Hashtbl.replace vars name v;
    v
  in
  let lookup name =
    match Hashtbl.find_opt vars name with
    | Some v -> v
    | None -> fail "unknown array %s" name
  in
  List.iter
    (fun (p, shape) -> (declare p shape).on_host <- true)
    plan.Plan.params;
  let steps = ref [] in
  let push s = steps := s :: !steps in
  (* Device buffers allocated and not yet freed, newest first. *)
  let allocated = ref [] in
  let alloc dst name len =
    push (C.Alloc { dst; name; len });
    allocated := dst :: !allocated
  in
  let free name =
    push (C.Free { name });
    allocated := List.filter (( <> ) name) !allocated
  in
  let aliased b = Hashtbl.fold (fun _ v acc -> acc || v.buffer = Some b) vars false in
  let kernels = ref [] in
  let downloads = ref [] in
  (* device2host when the host needs an array only the device holds;
     the device copy stays valid. *)
  let ensure_host name =
    let v = lookup name in
    if not v.on_host then
      match v.buffer with
      | Some src ->
          push (C.Download { dst = host name; src; len = Shape.size v.shape });
          downloads := (host name, v.shape) :: !downloads;
          v.on_host <- true
      | None -> fail "%s read before definition" name
  in
  (* host2device the first time a kernel reads a host-only array;
     [shape] is the kernel's view of it. *)
  let ensure_device name shape =
    let v = lookup name in
    match v.buffer with
    | Some b -> b
    | None ->
        if not v.on_host then fail "%s read before definition" name;
        let len = Shape.size shape in
        alloc (dev name) (Kernelize.sanitize name) len;
        push (C.Upload { dst = dev name; src = host name; len });
        v.buffer <- Some (dev name);
        dev name
  in
  let dies = if liveness then Some (dies_after plan) else None in
  let free_dead i =
    Option.iter
      (fun dies ->
        let dead =
          Hashtbl.fold
            (fun name v acc ->
              match v.buffer with
              | Some b when dies i name ->
                  v.buffer <- None;
                  if List.mem b acc then acc else b :: acc
              | _ -> acc)
            vars []
        in
        List.iter free (List.sort compare dead))
      dies
  in
  List.iteri
    (fun i item ->
      (match item with
      | Plan.Const_array { target; shape; fill } ->
          (declare target shape).on_host <- true;
          push
            (C.Route
               {
                 code =
                   comment
                     (Printf.sprintf "%s = constant array (%d) of shape %s"
                        (host target) fill (Shape.to_string shape));
                 payload = item;
               })
      | Plan.Copy { target; source } ->
          let src = lookup source in
          let v = declare target src.shape in
          v.on_host <- src.on_host;
          v.buffer <- src.buffer;
          push
            (C.Route
               {
                 code =
                   comment
                     (Printf.sprintf "%s aliases %s" (host target) (host source));
                 payload = item;
               })
      | Plan.Device_withloop
          { target; swith; kernels = ks; full_cover; label } ->
          let shape =
            Shape.concat swith.Sac.Scalarize.frame
              swith.Sac.Scalarize.cell_shape
          in
          let len = Shape.size shape in
          if label_withloops then
            push (C.Comment (Printf.sprintf "CUDA-WITH-loop: %s" label));
          let inputs =
            List.map
              (fun (a, a_shape) -> (Kernelize.sanitize a, ensure_device a a_shape))
              swith.Sac.Scalarize.arrays
          in
          let out = dev target in
          alloc out (Kernelize.sanitize target) len;
          (declare target shape).buffer <- Some out;
          (if not full_cover then
             match swith.Sac.Scalarize.base with
             | Sac.Scalarize.Base_const value ->
                 push (C.Fill { dst = out; value; len })
             | Sac.Scalarize.Base_array b ->
                 (* Uncovered elements keep the base: materialise it in
                    the output buffer before the kernels run. *)
                 ensure_host b;
                 push (C.Upload { dst = out; src = host b; len }));
          let split = List.length ks in
          List.iter
            (fun ((kernel : Gpu.Kir.t), grid) ->
              kernels := (kernel, grid) :: !kernels;
              push
                (C.Launch
                   { kernel; grid; args = inputs @ [ ("out", out) ]; label; split }))
            ks
      | Plan.Host_block { stmts; reads; writes } ->
          List.iter
            (fun v -> if Hashtbl.mem vars v then ensure_host v)
            (List.sort_uniq compare reads);
          push (C.Route { code = host_block stmts; payload = item });
          (* Host blocks are functional: what they write is a new host
             value, and any device copy of it is stale (freed unless a
             copy still aliases it). *)
          List.iter
            (fun w ->
              match Hashtbl.find_opt vars w with
              | Some v ->
                  v.on_host <- true;
                  Option.iter
                    (fun b ->
                      v.buffer <- None;
                      if not (aliased b) then free b)
                    v.buffer
              | None -> (declare w [||]).on_host <- true)
            (List.sort_uniq compare writes));
      free_dead i)
    plan.Plan.items;
  (* Result back to the host, then every buffer still allocated is
     released. *)
  ensure_host plan.Plan.result;
  List.iter free (List.rev !allocated);
  { kernels = List.rev !kernels; steps = List.rev !steps; downloads = !downloads }
