open Ndarray

type step = { instance : string; task_name : string; parallel_degree : int }

type t = step list list

let degree = function
  | Model.Repetitive { repetition; _ } -> Shape.size repetition
  | Model.Elementary _ -> 1
  | Model.Compound _ -> 1

let rec steps_of prefix task =
  match task with
  | Model.Elementary _ | Model.Repetitive _ ->
      [
        [
          {
            instance = prefix;
            task_name = Model.name task;
            parallel_degree = degree task;
          };
        ];
      ]
  | Model.Compound { parts; connections; name; _ } ->
      (* Kahn levelisation over part-to-part dependences. *)
      let deps inst =
        List.filter_map
          (fun (c : Model.connection) ->
            match (c.Model.cfrom, c.Model.cto) with
            | Model.Part (src, _), Model.Part (dst, _) when dst = inst ->
                Some src
            | _ -> None)
          connections
        |> List.sort_uniq compare
      in
      let rec levels done_ remaining acc =
        if remaining = [] then List.rev acc
        else
          let ready, blocked =
            List.partition
              (fun (inst, _) ->
                List.for_all (fun d -> List.mem d done_) (deps inst))
              remaining
          in
          if ready = [] then
            invalid_arg
              (Printf.sprintf "Schedule.compute: cycle in compound %s" name)
          else
            levels
              (List.map fst ready @ done_)
              blocked
              (ready :: acc)
      in
      let part_levels = levels [] parts [] in
      List.concat_map
        (fun level ->
          (* Parts at the same level run in parallel; each part expands
             to its own (sequential) sub-levels, concatenated in order
             and merged pointwise across the level's parts. *)
          let expanded =
            List.map
              (fun (inst, t) ->
                steps_of (if prefix = "" then inst else prefix ^ "/" ^ inst) t)
              level
          in
          let rec merge lists =
            let heads, tails =
              List.fold_right
                (fun l (hs, ts) ->
                  match l with
                  | [] -> (hs, ts)
                  | h :: t -> (h @ hs, t :: ts))
                lists ([], [])
            in
            if heads = [] then [] else heads :: merge tails
          in
          merge expanded)
        part_levels

let compute task = steps_of "" task

let total_parallelism t =
  List.fold_left
    (fun acc level ->
      List.fold_left (fun acc s -> acc + s.parallel_degree) acc level)
    0 t
