(* Plan-level kernel fusion and buffer liveness for the SAC->CUDA
   pipeline.

   A Device_withloop whose target feeds exactly one other
   Device_withloop (and nothing else — not the plan result, not a host
   block, not a copy, not a base array) is a fusion candidate: its
   kernels' store computations are inlined into each consumer kernel
   by Gpu.Fuse, the producer item disappears, and the intermediate
   buffer is never allocated.  The H.263 downscaler's horizontal →
   vertical filter pair is the motivating case: 5 + 7 launches per
   plane become 7 and the 72x24 horizontal pass is no longer
   materialised.

   Every fused item is re-verified with Verify.item_findings, the
   bounds and race/cover check the plan gate runs; a single finding
   vetoes the rewrite, so fusion is verified-by-construction and can
   only be observed through fewer launches and lower peak memory. *)

open Ndarray

let out_shape_of (sw : Sac.Scalarize.swith) =
  Shape.concat sw.Sac.Scalarize.frame sw.Sac.Scalarize.cell_shape

(* How item [it] uses array [t]: as a device input, or in any way that
   forbids eliminating [t] (base materialisation, host reads or
   writes, aliasing). *)
type use = Device_input | Blocking

let uses_of t it =
  match it with
  | Plan.Device_withloop { swith; full_cover; _ } ->
      let base_read =
        match (full_cover, swith.Sac.Scalarize.base) with
        | false, Sac.Scalarize.Base_array b -> b = t
        | _ -> false
      in
      if base_read then [ Blocking ]
      else if List.mem_assoc t swith.Sac.Scalarize.arrays then
        [ Device_input ]
      else []
  | Plan.Host_block { reads; writes; _ } ->
      if List.mem t reads || List.mem t writes then [ Blocking ] else []
  | Plan.Copy { source; target } ->
      if source = t || target = t then [ Blocking ] else []
  | Plan.Const_array { target; _ } -> if target = t then [ Blocking ] else []

let try_fuse_pair (p : Plan.t) items i j =
  match (items.(i), items.(j)) with
  | ( Plan.Device_withloop producer,
      Plan.Device_withloop consumer ) -> (
      let t = producer.target in
      let len = Shape.size (out_shape_of producer.swith) in
      let reads_from = Kernelize.sanitize t in
      let fused =
        List.fold_left
          (fun acc (ck, cgrid) ->
            match acc with
            | Error _ as e -> e
            | Ok ks -> (
                match
                  Gpu.Fuse.fuse_kernel ~stores_to:"out" ~len
                    ~producers:producer.kernels ~reads_from ~consumer:ck
                    ~grid:cgrid
                with
                | Ok f -> Ok ((f.Gpu.Fuse.fused, cgrid) :: ks)
                | Error m -> Error m))
          (Ok []) consumer.kernels
      in
      match fused with
      | Error m ->
          Logs.debug (fun f ->
              f "fusion of %s into %s refused: %s" t consumer.target m);
          None
      | Ok kernels_rev ->
          let kernels = List.rev kernels_rev in
          let arrays =
            List.filter
              (fun (a, _) -> a <> t)
              consumer.swith.Sac.Scalarize.arrays
            @ List.filter
                (fun (a, _) ->
                  a <> t
                  && not
                       (List.mem_assoc a
                          consumer.swith.Sac.Scalarize.arrays))
                producer.swith.Sac.Scalarize.arrays
          in
          let swith = { consumer.swith with Sac.Scalarize.arrays } in
          let item =
            Plan.Device_withloop
              {
                target = consumer.target;
                swith;
                kernels;
                full_cover = consumer.full_cover;
                label = consumer.label;
              }
          in
          (* Self-gate: the fused item must verify as cleanly as the
             rest of the plan. *)
          if
            Verify.item_findings ~swith ~kernels
              ~full_cover:consumer.full_cover
            <> []
          then begin
            Logs.debug (fun f ->
                f "fusion of %s into %s refused: analysis findings" t
                  consumer.target);
            None
          end
          else begin
            let items' =
              List.filteri (fun k _ -> k <> i) (Array.to_list items)
              |> List.map (fun it ->
                     if it == items.(j) then item else it)
            in
            let stats =
              {
                Gpu.Fuse.kernels_eliminated = List.length producer.kernels;
                launches_saved = List.length producer.kernels;
                buffers_eliminated = 1;
                bytes_saved = 2 * 4 * len;
              }
            in
            Some ({ p with Plan.items = items' }, stats)
          end)
  | _ -> None

(* Every fusible producer/consumer pair of [p], as named thunks: the
   autotuner exposes each as one rewrite move, while [optimize] below
   still applies them to a fixpoint for the fixed [--fuse] mode.  A
   thunk returns [None] when Gpu.Fuse refuses the inversion or the
   fused item fails the analysis gates. *)
let candidates (p : Plan.t) =
  let items = Array.of_list p.Plan.items in
  let n = Array.length items in
  let rec scan i acc =
    if i >= n then List.rev acc
    else
      match items.(i) with
      | Plan.Device_withloop { target; full_cover = true; _ }
        when target <> p.Plan.result -> (
          let uses = ref [] in
          Array.iteri
            (fun j it ->
              if j <> i then
                List.iter (fun u -> uses := (j, u) :: !uses) (uses_of target it))
            items;
          match !uses with
          | [ (j, Device_input) ] when j > i ->
              scan (i + 1)
                (("fuse:" ^ target, fun () -> try_fuse_pair p items i j) :: acc)
          | _ -> scan (i + 1) acc)
      | _ -> scan (i + 1) acc
  in
  scan 0 []

let try_fuse_one (p : Plan.t) =
  let rec first = function
    | [] -> None
    | (_, apply) :: rest -> (
        match apply () with Some _ as r -> r | None -> first rest)
  in
  first (candidates p)

(* Fuse until no candidate remains (a chain A -> B -> C fuses twice). *)
let optimize (p : Plan.t) =
  let rec go p stats =
    match try_fuse_one p with
    | Some (p', s) -> go p' (Gpu.Fuse.add_stats stats s)
    | None -> (p, stats)
  in
  go p Gpu.Fuse.no_stats
