type item =
  | Device_withloop of {
      target : string;
      swith : Sac.Scalarize.swith;
      kernels : (Gpu.Kir.t * int array) list;
      full_cover : bool;
      label : string;
    }
  | Const_array of { target : string; shape : int array; fill : int }
  | Host_block of {
      stmts : Sac.Ast.stmt list;
      reads : string list;
      writes : string list;
    }
  | Copy of { target : string; source : string }

type t = {
  params : (string * int array) list;
  items : item list;
  result : string;
  result_shape : int array;
}

let pp_item ppf = function
  | Device_withloop { target; kernels; label; full_cover; _ } ->
      Format.fprintf ppf "device with-loop %s: %d kernel(s), label=%S%s"
        target (List.length kernels) label
        (if full_cover then "" else " (base copy needed)")
  | Const_array { target; shape; fill } ->
      Format.fprintf ppf "const array %s = %d^%s" target fill
        (Ndarray.Shape.to_string shape)
  | Host_block { stmts; reads; _ } ->
      Format.fprintf ppf "host block (%d stmts; reads %s)"
        (List.length stmts)
        (String.concat "," reads)
  | Copy { target; source } -> Format.fprintf ppf "copy %s = %s" target source

let pp ppf t =
  Format.fprintf ppf "@[<v>plan (result %s : %s):@ %a@]" t.result
    (Ndarray.Shape.to_string t.result_shape)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_item)
    t.items

let kernel_count t =
  List.fold_left
    (fun acc item ->
      match item with
      | Device_withloop { kernels; _ } -> acc + List.length kernels
      | _ -> acc)
    0 t.items
