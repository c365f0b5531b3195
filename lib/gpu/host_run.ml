type 'r host = {
  read : string -> int array;
  write : string -> int array -> unit;
  route : 'r -> unit;
}

let run ctx host steps =
  let bufs : (string, Buffer.t) Hashtbl.t = Hashtbl.create 16 in
  let buf id =
    match Hashtbl.find_opt bufs id with
    | Some b -> b
    | None -> invalid_arg ("Host_run: no device buffer " ^ id)
  in
  List.iter
    (function
      | C_print.Comment _ -> ()
      | C_print.Alloc { dst; name; len } ->
          Hashtbl.replace bufs dst (Context.alloc ctx ~name len)
      | C_print.Upload { dst; src; _ } -> Context.h2d ctx (buf dst) (host.read src)
      | C_print.Download { dst; src; len } ->
          let data = Array.make len 0 in
          Context.d2h ctx (buf src) data;
          host.write dst data
      | C_print.Fill { dst; value; _ } -> Buffer.fill (buf dst) value
      | C_print.Launch { kernel; grid; args; label; split } ->
          Context.launch ~label ~split ctx kernel ~grid
            ~args:(List.map (fun (f, id) -> (f, Kir.Buffer_arg (buf id))) args)
      | C_print.Route { payload; _ } -> host.route payload
      | C_print.Free { name } ->
          Context.free ctx (buf name);
          Hashtbl.remove bufs name)
    steps
