let counter = ref 0

let fresh base_name =
  incr counter;
  let root =
    match String.index_opt base_name '$' with
    | Some i -> String.sub base_name 0 i
    | None -> base_name
  in
  Printf.sprintf "%s$%d" root !counter
