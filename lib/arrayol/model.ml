open Ndarray

type port = { pname : string; pshape : Shape.t }

type tiling = { outer_port : string; inner_port : string; tiler : Tiler.t }

type endpoint = Boundary of string | Part of string * string

type connection = { cfrom : endpoint; cto : endpoint }

type t =
  | Elementary of {
      name : string;
      ip : string;
      inputs : port list;
      outputs : port list;
    }
  | Repetitive of {
      name : string;
      repetition : Shape.t;
      inner : t;
      in_tilings : tiling list;
      out_tilings : tiling list;
      inputs : port list;
      outputs : port list;
    }
  | Compound of {
      name : string;
      parts : (string * t) list;
      connections : connection list;
      inputs : port list;
      outputs : port list;
    }

let name = function
  | Elementary { name; _ } | Repetitive { name; _ } | Compound { name; _ } ->
      name

let inputs = function
  | Elementary { inputs; _ }
  | Repetitive { inputs; _ }
  | Compound { inputs; _ } ->
      inputs

let outputs = function
  | Elementary { outputs; _ }
  | Repetitive { outputs; _ }
  | Compound { outputs; _ } ->
      outputs

let find_port ports name =
  List.find_opt (fun p -> p.pname = name) ports

let port_exn ports pname what =
  match find_port ports pname with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Model: %s port %s not found" what pname)

let in_tiler_spec task tiling =
  match task with
  | Repetitive { repetition; inner; inputs = outer_inputs; _ } ->
      let outer = port_exn outer_inputs tiling.outer_port "outer input" in
      let pattern =
        port_exn (inputs inner) tiling.inner_port "inner input"
      in
      Tiler.spec ~origin:tiling.tiler.Tiler.origin
        ~fitting:tiling.tiler.Tiler.fitting ~paving:tiling.tiler.Tiler.paving
        ~array_shape:outer.pshape ~pattern_shape:pattern.pshape
        ~repetition_shape:repetition
  | _ -> invalid_arg "Model.in_tiler_spec: not a repetitive task"

let out_tiler_spec task tiling =
  match task with
  | Repetitive { repetition; inner; outputs = outer_ports; _ } ->
      let outer = port_exn outer_ports tiling.outer_port "outer output" in
      let pattern =
        port_exn (outputs inner) tiling.inner_port "inner output"
      in
      Tiler.spec ~origin:tiling.tiler.Tiler.origin
        ~fitting:tiling.tiler.Tiler.fitting ~paving:tiling.tiler.Tiler.paving
        ~array_shape:outer.pshape ~pattern_shape:pattern.pshape
        ~repetition_shape:repetition
  | _ -> invalid_arg "Model.out_tiler_spec: not a repetitive task"
