type platform = { pname : string }

type device = { spec : Gpu.Device.t }

type context = { ctx : Gpu.Context.t }

type command_queue = { cq_ctx : Gpu.Context.t }

type mem = Gpu.Buffer.t

type program = { prog_name : string; kernels : Gpu.Kir.t list }

type kernel = {
  kir : Gpu.Kir.t;
  mutable args : (string * Gpu.Kir.arg) list option;
}

let get_platform_ids () = [ { pname = "Simulated OpenCL Platform" } ]

let get_device_ids _platform = [ { spec = Gpu.Device.gtx480 } ]

let device_spec d = d.spec

let create_context ?mode ?ordinal ?topology ?device () =
  let spec =
    match device with
    | Some d -> d
    | None ->
        (match get_device_ids (List.hd (get_platform_ids ())) with
        | d :: _ -> d.spec
        | [] -> assert false)
  in
  { ctx = Gpu.Context.create ?mode ?ordinal ?topology spec }

let create_command_queue c = { cq_ctx = c.ctx }

let create_buffer c ~name n = Gpu.Context.alloc c.ctx ~name n

let create_program_with_source _c ~name kernels = { prog_name = name; kernels }

let build_program p =
  List.fold_left
    (fun acc k ->
      Result.bind acc (fun () ->
          match Gpu.Kir.validate k with
          | Ok () -> Ok ()
          | Error m ->
              Error
                (Printf.sprintf "%s.cl: error in kernel %s: %s" p.prog_name
                   k.Gpu.Kir.kname m)))
    (Ok ()) p.kernels

let create_kernel p name =
  match List.find_opt (fun k -> k.Gpu.Kir.kname = name) p.kernels with
  | Some k -> { kir = k; args = None }
  | None -> raise Not_found

let set_args k args = k.args <- Some args

let enqueue_write_buffer ?label q mem src = Gpu.Context.h2d ?label q.cq_ctx mem src

let enqueue_read_buffer ?label q mem dst = Gpu.Context.d2h ?label q.cq_ctx mem dst

let enqueue_nd_range_kernel ?label ?split q k ~global_work_size =
  match k.args with
  | None ->
      invalid_arg
        (Printf.sprintf "enqueue_nd_range_kernel %s: clSetKernelArg missing"
           k.kir.Gpu.Kir.kname)
  | Some args ->
      Gpu.Context.launch ?label ?split q.cq_ctx k.kir ~grid:global_work_size
        ~args

let finish _ = ()

let gpu_context c = c.ctx

let elapsed_us c = Gpu.Context.elapsed_us c.ctx

let profile c = Gpu.Profiler.rows (Gpu.Context.timeline c.ctx)
