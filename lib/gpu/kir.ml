type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Min
  | Max
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type expr =
  | Int of int
  | Gid of int
  | Param of string
  | Var of string
  | Read of string * expr
  | Bin of binop * expr * expr
  | Select of expr * expr * expr

type stmt =
  | Let of string * expr
  | Store of string * expr * expr
  | If of expr * stmt list * stmt list
  | For of { var : string; lo : expr; hi : expr; body : stmt list }

type param_kind = Scalar | In_buffer | Out_buffer

type param = { pname : string; kind : param_kind }

type t = {
  kname : string;
  params : param list;
  grid_rank : int;
  body : stmt list;
}

type arg = Scalar_arg of int | Buffer_arg of Buffer.t

let bool_of_int i = i <> 0

let int_of_bool b = if b then 1 else 0

exception Kernel_error of string

let apply_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then raise (Kernel_error "division by zero") else a / b
  | Mod -> if b = 0 then raise (Kernel_error "modulo by zero") else a mod b
  | Min -> min a b
  | Max -> max a b
  | Lt -> int_of_bool (a < b)
  | Le -> int_of_bool (a <= b)
  | Gt -> int_of_bool (a > b)
  | Ge -> int_of_bool (a >= b)
  | Eq -> int_of_bool (a = b)
  | Ne -> int_of_bool (a <> b)
  | And -> int_of_bool (bool_of_int a && bool_of_int b)
  | Or -> int_of_bool (bool_of_int a || bool_of_int b)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

module Sset = Set.Make (String)

let param_kind k params name =
  List.find_map
    (fun p -> if p.pname = name then Some p.kind else None)
    params
  |> function
  | Some kind -> Ok kind
  | None -> Error (Printf.sprintf "kernel %s: unknown parameter %s" k name)

let validate kernel =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let* () =
    if kernel.kname = "" then err "kernel has an empty name" else Ok ()
  in
  let* () =
    let names = List.map (fun p -> p.pname) kernel.params in
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then err "kernel %s: duplicate parameter names" kernel.kname
    else Ok ()
  in
  let rec check_expr bound = function
    | Int _ -> Ok ()
    | Gid d ->
        if d < 0 || d >= kernel.grid_rank then
          err "kernel %s: gid dimension %d out of grid rank %d" kernel.kname d
            kernel.grid_rank
        else Ok ()
    | Param name -> (
        match param_kind kernel.kname kernel.params name with
        | Error _ as e -> e
        | Ok Scalar -> Ok ()
        | Ok (In_buffer | Out_buffer) ->
            err "kernel %s: buffer %s used as a scalar" kernel.kname name)
    | Var name ->
        if Sset.mem name bound then Ok ()
        else err "kernel %s: unbound variable %s" kernel.kname name
    | Read (buf, idx) -> (
        match param_kind kernel.kname kernel.params buf with
        | Error _ as e -> e
        | Ok Scalar ->
            err "kernel %s: scalar %s used as a buffer" kernel.kname buf
        | Ok (In_buffer | Out_buffer) -> check_expr bound idx)
    | Bin (_, a, b) ->
        let* () = check_expr bound a in
        check_expr bound b
    | Select (c, a, b) ->
        let* () = check_expr bound c in
        let* () = check_expr bound a in
        check_expr bound b
  in
  let rec check_stmts bound = function
    | [] -> Ok bound
    | Let (name, e) :: rest ->
        let* () = check_expr bound e in
        check_stmts (Sset.add name bound) rest
    | Store (buf, idx, v) :: rest ->
        let* () =
          match param_kind kernel.kname kernel.params buf with
          | Error _ as e -> e
          | Ok Out_buffer -> Ok ()
          | Ok Scalar ->
              err "kernel %s: store to scalar %s" kernel.kname buf
          | Ok In_buffer ->
              err "kernel %s: store to input buffer %s" kernel.kname buf
        in
        let* () = check_expr bound idx in
        let* () = check_expr bound v in
        check_stmts bound rest
    | If (c, t_, e_) :: rest ->
        let* () = check_expr bound c in
        let* _ = check_stmts bound t_ in
        let* _ = check_stmts bound e_ in
        check_stmts bound rest
    | For { var; lo; hi; body } :: rest ->
        let* () = check_expr bound lo in
        let* () = check_expr bound hi in
        let* _ = check_stmts (Sset.add var bound) body in
        check_stmts bound rest
  in
  let* _ = check_stmts Sset.empty kernel.body in
  Ok ()

let check_args kernel args =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  if List.length args <> List.length kernel.params then
    err "kernel %s: expected %d arguments, got %d" kernel.kname
      (List.length kernel.params) (List.length args)
  else
    List.fold_left
      (fun acc p ->
        Result.bind acc (fun () ->
            match List.assoc_opt p.pname args with
            | None -> err "kernel %s: missing argument %s" kernel.kname p.pname
            | Some (Scalar_arg _) when p.kind = Scalar -> Ok ()
            | Some (Buffer_arg _) when p.kind <> Scalar -> Ok ()
            | Some _ ->
                err "kernel %s: argument %s has the wrong kind" kernel.kname
                  p.pname))
      (Ok ()) kernel.params

(* ------------------------------------------------------------------ *)
(* Compilation to closures                                             *)
(* ------------------------------------------------------------------ *)

(* Compilation is split in two so the expensive part can be cached:

   - {!prepare} resolves variables to slots of a per-thread scratch
     array and parameters to positions of an argument environment, and
     builds the closure tree — once per kernel;
   - {!bind} packs the actual scalar values and buffer arrays into that
     environment — once per launch, a few array writes.

   Running a thread then allocates only the scratch array. *)

type env = { scalars : int array; buffers : int array array }

type prepared = {
  p_kernel : t;
  p_scratch : int;
  p_run : env -> int array -> int array -> unit;  (* [run env scratch gid] *)
}

type compiled = { scratch_size : int; run : int array -> int array -> unit }
(* [run scratch gid] *)

let param_positions kernel =
  (* Scalars and buffers get independent position spaces so [bind] can
     pack each into a flat array. *)
  let scalars = ref 0 and buffers = ref 0 in
  List.map
    (fun p ->
      match p.kind with
      | Scalar ->
          let i = !scalars in
          incr scalars;
          (p.pname, `Scalar i)
      | In_buffer | Out_buffer ->
          let i = !buffers in
          incr buffers;
          (p.pname, `Buffer i))
    kernel.params

let prepare kernel =
  (match validate kernel with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "Kir.prepare: %s" m));
  let positions = param_positions kernel in
  let scalar_pos name =
    match List.assoc name positions with
    | `Scalar i -> i
    | `Buffer _ -> assert false
  in
  let buffer_pos name =
    match List.assoc name positions with
    | `Buffer i -> i
    | `Scalar _ -> assert false
  in
  let next_slot = ref 0 in
  let fresh_slot () =
    let s = !next_slot in
    incr next_slot;
    s
  in
  (* Scope: variable name -> slot.  Scoping is lexical; shadowing binds a
     fresh slot. *)
  let rec comp_expr scope = function
    | Int n -> fun _ _ _ -> n
    | Gid d -> fun _ _ gid -> gid.(d)
    | Param name ->
        let i = scalar_pos name in
        fun env _ _ -> env.scalars.(i)
    | Var name ->
        let slot = List.assoc name scope in
        fun _ scratch _ -> scratch.(slot)
    | Read (buf, idx) ->
        let bi = buffer_pos buf in
        let idx = comp_expr scope idx in
        fun env scratch gid -> env.buffers.(bi).(idx env scratch gid)
    | Bin (op, a, b) -> (
        let a = comp_expr scope a and b = comp_expr scope b in
        match op with
        | Add -> fun e s g -> a e s g + b e s g
        | Sub -> fun e s g -> a e s g - b e s g
        | Mul -> fun e s g -> a e s g * b e s g
        | Div ->
            fun e s g ->
              let d = b e s g in
              if d = 0 then raise (Kernel_error "division by zero")
              else a e s g / d
        | Mod ->
            fun e s g ->
              let d = b e s g in
              if d = 0 then raise (Kernel_error "modulo by zero")
              else a e s g mod d
        | Min -> fun e s g -> min (a e s g) (b e s g)
        | Max -> fun e s g -> max (a e s g) (b e s g)
        | Lt -> fun e s g -> int_of_bool (a e s g < b e s g)
        | Le -> fun e s g -> int_of_bool (a e s g <= b e s g)
        | Gt -> fun e s g -> int_of_bool (a e s g > b e s g)
        | Ge -> fun e s g -> int_of_bool (a e s g >= b e s g)
        | Eq -> fun e s g -> int_of_bool (a e s g = b e s g)
        | Ne -> fun e s g -> int_of_bool (a e s g <> b e s g)
        | And -> fun e s g -> int_of_bool (a e s g <> 0 && b e s g <> 0)
        | Or -> fun e s g -> int_of_bool (a e s g <> 0 || b e s g <> 0))
    | Select (c, a, b) ->
        let c = comp_expr scope c
        and a = comp_expr scope a
        and b = comp_expr scope b in
        fun e s g -> if c e s g <> 0 then a e s g else b e s g
  in
  let rec comp_stmts scope = function
    | [] -> (scope, fun _ _ _ -> ())
    | stmt :: rest ->
        let scope, head = comp_stmt scope stmt in
        let scope, tail = comp_stmts scope rest in
        ( scope,
          fun e s g ->
            head e s g;
            tail e s g )
  and comp_stmt scope = function
    | Let (name, e) ->
        let e = comp_expr scope e in
        let slot = fresh_slot () in
        ( (name, slot) :: scope,
          fun env s g -> s.(slot) <- e env s g )
    | Store (buf, idx, v) ->
        let bi = buffer_pos buf in
        let idx = comp_expr scope idx and v = comp_expr scope v in
        (scope, fun e s g -> e.buffers.(bi).(idx e s g) <- v e s g)
    | If (c, then_, else_) ->
        let c = comp_expr scope c in
        let _, then_ = comp_stmts scope then_ in
        let _, else_ = comp_stmts scope else_ in
        (scope, fun e s g -> if c e s g <> 0 then then_ e s g else else_ e s g)
    | For { var; lo; hi; body } ->
        let lo = comp_expr scope lo and hi = comp_expr scope hi in
        let slot = fresh_slot () in
        let _, body = comp_stmts ((var, slot) :: scope) body in
        ( scope,
          fun e s g ->
            let stop = hi e s g in
            let i = ref (lo e s g) in
            while !i < stop do
              s.(slot) <- !i;
              body e s g;
              incr i
            done )
  in
  let _, run = comp_stmts [] kernel.body in
  { p_kernel = kernel; p_scratch = max 1 !next_slot; p_run = run }

let bind prepared ~args =
  let kernel = prepared.p_kernel in
  (match check_args kernel args with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "Kir.bind: %s" m));
  let scalars = ref [] and buffers = ref [] in
  List.iter
    (fun p ->
      match (p.kind, List.assoc p.pname args) with
      | Scalar, Scalar_arg v -> scalars := v :: !scalars
      | (In_buffer | Out_buffer), Buffer_arg b ->
          buffers := b.Buffer.data :: !buffers
      | _ -> assert false (* check_args *))
    kernel.params;
  let env =
    {
      scalars = Array.of_list (List.rev !scalars);
      buffers = Array.of_list (List.rev !buffers);
    }
  in
  let p_run = prepared.p_run in
  { scratch_size = prepared.p_scratch; run = (fun s g -> p_run env s g) }

(* Process-wide memo of prepared kernels, so short-lived contexts (one
   per plane or frame in the pooled drivers) still compile each kernel
   only once.  Kernels are immutable structural data: they make sound
   hash keys, and prepared closures are safe to share across domains. *)
let shared_lock = Mutex.create ()

let shared : (t, prepared) Hashtbl.t = Hashtbl.create 64

let shared_prepare_memo kernel =
  Mutex.lock shared_lock;
  let cached = Hashtbl.find_opt shared kernel in
  Mutex.unlock shared_lock;
  match cached with
  | Some p -> (p, true)
  | None ->
      (* Prepared outside the lock: preparation is pure, so a racing
         duplicate is only a little wasted work. *)
      let p = prepare kernel in
      Mutex.lock shared_lock;
      if not (Hashtbl.mem shared kernel) then Hashtbl.add shared kernel p;
      Mutex.unlock shared_lock;
      (p, false)

(* ------------------------------------------------------------------ *)
(* Data-independence of the cost profile                               *)
(* ------------------------------------------------------------------ *)

(* {!profile_threads} is cacheable across launches when the address
   trace and operation count of a thread cannot depend on buffer
   contents: every control expression (If/Select condition, For bound),
   every Read/Store index, and every Div/Mod divisor must be free of
   values loaded from buffers.  A taint analysis over let-bound
   variables decides this conservatively. *)

exception Data_dependent

let cost_data_independent kernel =
  let rec taint tainted = function
    | Int _ | Gid _ | Param _ -> false
    | Var v -> Sset.mem v tainted
    | Read (_, idx) ->
        if taint tainted idx then raise Data_dependent;
        true
    | Bin ((Div | Mod), a, b) ->
        if taint tainted b then raise Data_dependent;
        taint tainted a
    | Bin (_, a, b) ->
        let ta = taint tainted a in
        taint tainted b || ta
    | Select (c, a, b) ->
        if taint tainted c then raise Data_dependent;
        let ta = taint tainted a in
        taint tainted b || ta
  in
  let untainted tainted e = if taint tainted e then raise Data_dependent in
  let rec stmts tainted = function
    | [] -> tainted
    | Let (name, e) :: rest ->
        let tainted =
          if taint tainted e then Sset.add name tainted
          else Sset.remove name tainted
        in
        stmts tainted rest
    | Store (_, idx, v) :: rest ->
        untainted tainted idx;
        ignore (taint tainted v);
        stmts tainted rest
    | If (c, t_, e_) :: rest ->
        untainted tainted c;
        ignore (stmts tainted t_);
        ignore (stmts tainted e_);
        stmts tainted rest
    | For { var; lo; hi; body } :: rest ->
        untainted tainted lo;
        untainted tainted hi;
        ignore (stmts (Sset.remove var tainted) body);
        stmts tainted rest
  in
  match stmts Sset.empty kernel.body with
  | _ -> true
  | exception Data_dependent -> false

(* ------------------------------------------------------------------ *)
(* Grid execution                                                      *)
(* ------------------------------------------------------------------ *)

(* Execute the linearised work-items [lo, hi).  One unravel per range,
   then in-place increments: the per-item [Index.unravel] allocation of
   the old parallel path dominated small kernels. *)
let run_range compiled grid lo hi =
  if lo < hi then begin
    let scratch = Array.make compiled.scratch_size 0 in
    let gid = Ndarray.Index.unravel grid lo in
    compiled.run scratch gid;
    for _ = lo + 1 to hi - 1 do
      ignore (Ndarray.Index.next_in_place grid gid);
      compiled.run scratch gid
    done
  end

let run_grid ?(domains = 1) compiled grid =
  let total = Ndarray.Shape.size grid in
  if total > 0 then
    let domains = if domains <= 0 then Pool.default_domains () else domains in
    if domains <= 1 then run_range compiled grid 0 total
    else
      Pool.parallel_for ~chunks:domains (Pool.get ()) ~lo:0 ~hi:total
        (run_range compiled grid)

(* ------------------------------------------------------------------ *)
(* Cost records                                                        *)
(* ------------------------------------------------------------------ *)

(* Static memory-behaviour summary attached to costs derived without
   executing the kernel (see {!static_cost}).  Warp-level quantities
   are modelled over the simulator's 32-lane warps: a "segment" is a
   32-word (128-byte) aligned span of a buffer, the granularity a
   coalesced transaction fetches. *)

type buffer_access = {
  ba_buffer : string;
  ba_reads : float;  (** mean reads per sampled thread on this buffer *)
  ba_class : [ `Row | `Column | `Gather ];
  ba_burst : float;  (** mean per-thread consecutive-address run length *)
  ba_efficiency : float;
      (** warp coalescing efficiency: useful words / fetched words over
          the sampled warps' per-step transactions, in [0, 1] *)
  ba_overlap : float;
      (** fraction of warp read events re-fetching an address some lane
          of the warp already read — the reuse a scratchpad stage would
          absorb *)
  ba_bank_conflict : int;
      (** modelled shared-memory conflict degree if the warp's loads
          were staged: max lanes hitting one of 32 banks in a step *)
}

type branch_summary = {
  br_site : string;  (** rendered condition of the [If] *)
  br_divergent : bool;
      (** some sampled warp's lanes took different decision sequences *)
  br_ops : float;  (** mean ops per thread inside the branch region *)
  br_stores : float;  (** mean stores per thread inside the region *)
}

type access_summary = {
  as_buffers : buffer_access list;  (** in kernel-parameter order *)
  as_branches : branch_summary list;  (** in program order *)
  as_divergent_branches : int;
  as_divergent_ops : float;
      (** mean per-thread ops inside divergent regions — lanes of a
          mixed warp serialise these *)
  as_stranded_lanes : int;
      (** idle lanes of the last warp: (32 - total mod 32) mod 32 *)
  as_warp_size : int;
}

type cost = {
  reads_per_thread : float;
  writes_per_thread : float;
  ops_per_thread : float;
  access : [ `Row | `Column | `Gather ];
  read_burst : float;
  summary : access_summary option;
      (** present when the cost was derived statically *)
}

(* Classify the read pattern of one thread from its address trace: the
   median gap between consecutively issued reads.  Generated downscaler
   kernels read either consecutive pixels of a row (gap 1: [`Row]) or a
   fixed column of consecutive rows (gap = row width: [`Column]). *)
let classify_addrs addrs =
  match addrs with
  | [] | [ _ ] -> `Row
  | _ ->
      let a = Array.of_list (List.rev addrs) in
      let gaps =
        Array.init
          (Array.length a - 1)
          (fun i -> abs (a.(i + 1) - a.(i)))
      in
      Array.sort compare gaps;
      let median = gaps.(Array.length gaps / 2) in
      if median <= 2 then `Row
      else if median >= 8 then
        (* Constant large stride = column walk; irregular = gather. *)
        let uniform =
          Array.for_all (fun g -> g = gaps.(0) || g <= 2) gaps
        in
        if uniform then `Column else `Gather
      else `Gather

(* Mean length of maximal consecutive-address runs in issue order. *)
let burst_of_addrs addrs =
  match addrs with
  | [] -> 1.0
  | _ ->
      let a = Array.of_list (List.rev addrs) in
      let runs = ref 1 in
      for i = 0 to Array.length a - 2 do
        (* Ascending or descending unit steps both form a burst (code
           generators may emit window reads in either order). *)
        if abs (a.(i + 1) - a.(i)) <> 1 then incr runs
      done;
      float_of_int (Array.length a) /. float_of_int !runs

(* ------------------------------------------------------------------ *)
(* Operator spellings and divergence-site labels                      *)
(* ------------------------------------------------------------------ *)

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Min -> "min"
  | Max -> "max"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"

let rec pp_expr ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Gid d -> Format.fprintf ppf "gid%d" d
  | Param p -> Format.pp_print_string ppf p
  | Var v -> Format.pp_print_string ppf v
  | Read (b, i) -> Format.fprintf ppf "%s[%a]" b pp_expr i
  | Bin ((Min | Max) as op, a, b) ->
      Format.fprintf ppf "%s(%a, %a)" (binop_symbol op) pp_expr a pp_expr b
  | Bin (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_symbol op) pp_expr b
  | Select (c, a, b) ->
      Format.fprintf ppf "(%a ? %a : %a)" pp_expr c pp_expr a pp_expr b

(* ------------------------------------------------------------------ *)
(* The instrumented evaluator                                          *)
(* ------------------------------------------------------------------ *)

(* One evaluator counts sampled threads for both {!profile_threads}
   and {!static_cost}, and enumerates store events for {!iter_stores},
   so the two costs agree by construction.  It compiles the body once
   into closures, as {!prepare} does for execution: variables resolve
   to slots, buffers to parameter positions and [If] sites to array
   indices.  What a load yields is fixed when the closures are built:

   - [Opaque hook]: an opaque value; every address, branch condition,
     loop bound and divisor must still reduce to a concrete integer, or
     evaluation stops with [Static_blocked].  The optional [hook buf
     addr] sees the address of each store;
   - [Concrete data]: the bounds-checked word of [data] (one array per
     parameter position), into which stores also land.

   Division or modulo by a concrete zero raises {!Kernel_error} in
   both modes. *)

exception Static_blocked of string

type loads =
  | Opaque of (string -> int -> unit) option
  | Concrete of int array array

(* One sampled thread's trace. *)
type strace = {
  mutable s_writes : int;
  mutable s_ops : int;
  mutable s_read_addrs : int list;  (* reversed *)
  s_buf_addrs : int list array;  (* reversed, per parameter position *)
  s_decisions : bool list array;  (* reversed, per If site *)
  s_site_ops : int array;
  s_site_stores : int array;
}

(* Evaluation state of one compiled body, allocated once per kernel
   and passed to its closures.  A value is a concrete int unless its
   [unknown] flag says it is an opaque load. *)
type sstate = {
  mutable gid : int array;
  vals : int array;  (* let and loop slots *)
  unknowns : bool array;
  mutable unknown : bool;  (* flag of the expression just evaluated *)
  mutable tr : strace;
}

let new_strace ~nbufs ~nsites =
  {
    s_writes = 0;
    s_ops = 0;
    s_read_addrs = [];
    s_buf_addrs = Array.make nbufs [];
    s_decisions = Array.make (max 1 nsites) [];
    s_site_ops = Array.make (max 1 nsites) 0;
    s_site_stores = Array.make (max 1 nsites) 0;
  }

let blocked m = raise (Static_blocked m)

(* [op] with an opaque operand ([ux]/[uy]): opaque unless the other
   operand decides it (0 for [Mul]/[And], nonzero for [Or]). *)
let opaque_binop st op x ux y uy =
  match op with
  | (Div | Mod) when uy -> blocked "buffer-dependent divisor"
  | (Div | Mod) when y = 0 -> apply_binop op x y (* raises *)
  | (Mul | And) when ((not ux) && x = 0) || ((not uy) && y = 0) ->
      st.unknown <- false;
      0
  | Or when ((not ux) && x <> 0) || ((not uy) && y <> 0) ->
      st.unknown <- false;
      1
  | _ ->
      st.unknown <- true;
      0

let count_read tr b i =
  tr.s_read_addrs <- i :: tr.s_read_addrs;
  tr.s_buf_addrs.(b) <- i :: tr.s_buf_addrs.(b)

let out_of_bounds kernel what buf i =
  raise
    (Kernel_error
       (Printf.sprintf "%s: out-of-bounds %s %s[%d]" kernel.kname what buf i))

(* [instrument ~scalars ~loads kernel] is [(run, sites)]: [run gid]
   evaluates one thread of the (valid) kernel and returns its trace;
   [sites] lists the rendered [If] conditions by site index.  Sites
   are numbered parent first, then the else branch, then the then
   branch — the order the summaries have always listed them in.
   Operands of a binary operator are evaluated right to left, the
   issue order read bursts have always been counted in. *)
let instrument ~scalars ~loads kernel =
  let nbufs = List.length kernel.params in
  let buf_index name =
    let rec go i = function
      | [] -> assert false (* validate *)
      | p :: rest -> if p.pname = name then i else go (i + 1) rest
    in
    go 0 kernel.params
  in
  let next_slot = ref 0 and next_site = ref 0 and sites = ref [] in
  (* Leaves are shared per value, slot or axis: the closures of a body
     live through all sampled threads, so their size is what a call
     leaves on the major heap. *)
  let leaves = Hashtbl.create 64 in
  let leaf key make =
    match Hashtbl.find_opt leaves key with
    | Some c -> c
    | None ->
        let c = make () in
        Hashtbl.add leaves key c;
        c
  in
  let rec expr scope = function
    | Int n ->
        leaf (`Int n) (fun () st ->
            st.unknown <- false;
            n)
    | Gid d ->
        leaf (`Gid d) (fun () st ->
            st.unknown <- false;
            st.gid.(d))
    | Param name -> (
        match List.assoc_opt name scalars with
        | Some v -> expr scope (Int v)
        | None ->
            let m = Printf.sprintf "no static value for scalar %s" name in
            fun _ -> blocked m)
    | Var name ->
        let slot = List.assoc name scope in
        leaf (`Var slot) (fun () st ->
            st.unknown <- st.unknowns.(slot);
            st.vals.(slot))
    | Read (buf, idx) -> (
        let b = buf_index buf and idx = expr scope idx in
        match loads with
        | Opaque _ ->
            fun st ->
              let i = idx st in
              if st.unknown then blocked "buffer-dependent read address";
              count_read st.tr b i;
              st.unknown <- true;
              0
        | Concrete data ->
            let data = data.(b) in
            fun st ->
              let i = idx st in
              count_read st.tr b i;
              if i < 0 || i >= Array.length data then
                out_of_bounds kernel "read" buf i;
              data.(i))
    | Bin (op, a, b) ->
        let a = expr scope a and b = expr scope b in
        fun st ->
          st.tr.s_ops <- st.tr.s_ops + 1;
          let y = b st in
          let uy = st.unknown in
          let x = a st in
          if st.unknown || uy then opaque_binop st op x st.unknown y uy
          else apply_binop op x y
    | Select (c, a, b) ->
        let c = expr scope c and a = expr scope a and b = expr scope b in
        fun st ->
          st.tr.s_ops <- st.tr.s_ops + 1;
          let v = c st in
          if st.unknown then blocked "buffer-dependent select condition";
          if v <> 0 then a st else b st
  in
  let rec stmts scope ss =
    let rec go scope acc = function
      | [] -> Array.of_list (List.rev acc)
      | s :: rest ->
          let scope, c = stmt scope s in
          go scope (c :: acc) rest
    in
    let cs = go scope [] ss in
    fun st ->
      for i = 0 to Array.length cs - 1 do
        cs.(i) st
      done
  and stmt scope = function
    | Let (name, e) ->
        let e = expr scope e in
        let slot = !next_slot in
        incr next_slot;
        ( (name, slot) :: scope,
          fun st ->
            st.vals.(slot) <- e st;
            st.unknowns.(slot) <- st.unknown )
    | Store (buf, idx, v) ->
        let idx = expr scope idx and v = expr scope v in
        let commit =
          match loads with
          | Opaque None -> None
          | Opaque (Some hook) -> Some (fun i _ -> hook buf i)
          | Concrete data ->
              let data = data.(buf_index buf) in
              Some
                (fun i x ->
                  if i < 0 || i >= Array.length data then
                    out_of_bounds kernel "write" buf i;
                  data.(i) <- x)
        in
        ( scope,
          fun st ->
            let i = idx st in
            if st.unknown then blocked "buffer-dependent store address";
            let x = v st in
            st.tr.s_writes <- st.tr.s_writes + 1;
            match commit with None -> () | Some commit -> commit i x )
    | If (c, then_, else_) ->
        let site = !next_site in
        incr next_site;
        sites := Format.asprintf "if (%a)" pp_expr c :: !sites;
        let c = expr scope c in
        let else_ = stmts scope else_ in
        let then_ = stmts scope then_ in
        ( scope,
          fun st ->
            let v = c st in
            if st.unknown then blocked "buffer-dependent branch";
            let taken = v <> 0 in
            let tr = st.tr in
            tr.s_decisions.(site) <- taken :: tr.s_decisions.(site);
            let ops0 = tr.s_ops and st0 = tr.s_writes in
            if taken then then_ st else else_ st;
            tr.s_site_ops.(site) <- tr.s_site_ops.(site) + (tr.s_ops - ops0);
            tr.s_site_stores.(site) <-
              tr.s_site_stores.(site) + (tr.s_writes - st0) )
    | For { var; lo; hi; body } ->
        let lo = expr scope lo and hi = expr scope hi in
        let slot = !next_slot in
        incr next_slot;
        let body = stmts ((var, slot) :: scope) body in
        ( scope,
          fun st ->
            let stop = hi st in
            if st.unknown then blocked "buffer-dependent loop bound";
            let i = ref (lo st) in
            if st.unknown then blocked "buffer-dependent loop bound";
            while !i < stop do
              st.vals.(slot) <- !i;
              st.unknowns.(slot) <- false;
              body st;
              incr i
            done )
  in
  let body = stmts [] kernel.body in
  let nsites = !next_site in
  let st =
    {
      gid = [||];
      vals = Array.make (max 1 !next_slot) 0;
      unknowns = Array.make (max 1 !next_slot) false;
      unknown = false;
      tr = new_strace ~nbufs ~nsites;
    }
  in
  let run gid =
    st.gid <- gid;
    st.tr <- new_strace ~nbufs ~nsites;
    body st;
    st.tr
  in
  (run, List.rev !sites)

(* ------------------------------------------------------------------ *)
(* Cost profiles                                                       *)
(* ------------------------------------------------------------------ *)

let zero_cost summary =
  { reads_per_thread = 0.; writes_per_thread = 0.; ops_per_thread = 0.;
    access = `Row; read_burst = 1.0; summary }

(* Read traces of sampled threads: how many, their reads and burst
   sum, and the access-class votes. *)
type tally = {
  mutable traces : int;
  mutable reads : int;
  mutable burst : float;
  mutable row : int;
  mutable col : int;
  mutable gather : int;
}

let new_tally () =
  { traces = 0; reads = 0; burst = 0.; row = 0; col = 0; gather = 0 }

let tally t addrs =
  t.traces <- t.traces + 1;
  t.reads <- t.reads + List.length addrs;
  t.burst <- t.burst +. burst_of_addrs addrs;
  match classify_addrs addrs with
  | `Row -> t.row <- t.row + 1
  | `Column -> t.col <- t.col + 1
  | `Gather -> t.gather <- t.gather + 1

(* The dominant class, ties going to [`Row] then [`Column]. *)
let vote t =
  if t.gather > t.row && t.gather > t.col then `Gather
  else if t.col > t.row then `Column
  else `Row

(* Phase A, shared by both costs: up to 64 threads strided across the
   (non-empty) grid, averaged per thread.  [each] also sees every
   sampled trace.  Returns the means and the sample count. *)
let sample_threads ?(each = ignore) run grid =
  let total = Ndarray.Shape.size grid in
  let step = max 1 (total / min total 64) in
  let t = new_tally () and writes = ref 0 and ops = ref 0 and lin = ref 0 in
  while !lin < total do
    let tr = run (Ndarray.Index.unravel grid !lin) in
    tally t tr.s_read_addrs;
    writes := !writes + tr.s_writes;
    ops := !ops + tr.s_ops;
    each tr;
    lin := !lin + step
  done;
  let nf = float_of_int t.traces in
  ( {
      reads_per_thread = float_of_int t.reads /. nf;
      writes_per_thread = float_of_int !writes /. nf;
      ops_per_thread = float_of_int !ops /. nf;
      access = vote t;
      read_burst = t.burst /. nf;
      summary = None;
    },
    nf )

let profile_threads kernel ~args ~grid =
  let check = function
    | Ok () -> ()
    | Error m -> invalid_arg ("Kir.profile_threads: " ^ m)
  in
  check (check_args kernel args);
  check (validate kernel);
  if Ndarray.Shape.size grid = 0 then zero_cost None
  else begin
    (* Stores land in private copies of the output buffers: later
       sampled threads see earlier ones' writes, the launch's own
       buffers stay untouched.  A storeless (timing-only) buffer reads
       as the zeros it would hold. *)
    let data =
      List.map
        (fun p ->
          match (p.kind, List.assoc p.pname args) with
          | In_buffer, Buffer_arg b when Buffer.stored b -> b.Buffer.data
          | (In_buffer | Out_buffer), Buffer_arg b -> Buffer.to_array b
          | _ -> [||])
        kernel.params
    in
    let scalars =
      List.filter_map
        (function n, Scalar_arg v -> Some (n, v) | _, Buffer_arg _ -> None)
        args
    in
    let run, _ =
      instrument ~scalars ~loads:(Concrete (Array.of_list data)) kernel
    in
    fst (sample_threads run grid)
  end

(* ------------------------------------------------------------------ *)
(* Static (data-free) cost derivation                                  *)
(* ------------------------------------------------------------------ *)

(* {!static_cost} runs phase A with opaque loads — the numbers of
   {!profile_threads}, as long as no address, branch or bound needs a
   loaded value, which {!cost_data_independent} guarantees — and adds
   warp-level structure (coalescing efficiency, read overlap,
   bank-conflict degree, divergence) from three densely sampled warps
   (phase B). *)

let warp_size = 32

(* Floor division for (defensively) possibly-negative addresses. *)
let seg_of a = if a >= 0 then a / warp_size else ((a + 1) / warp_size) - 1

type bstat = {
  mutable b_touched : bool;  (* some sampled thread or lane read it *)
  b_tally : tally;  (* phase A, over the threads that read the buffer *)
  (* warp-dense phase *)
  mutable b_events : int;  (* read events across sampled warps *)
  mutable b_distinct : int;  (* distinct words the warps consume *)
  mutable b_fetched : int;  (* words of the distinct segments fetched *)
  mutable b_bank : int;  (* max bank-conflict degree over steps *)
}

let new_bstat () =
  { b_touched = false; b_tally = new_tally (); b_events = 0; b_distinct = 0;
    b_fetched = 0; b_bank = 0 }

let static_cost ?(scalars = []) kernel ~grid =
  match validate kernel with
  | Error m -> Error (Printf.sprintf "invalid kernel: %s" m)
  | Ok () ->
      if not (cost_data_independent kernel) then
        Error "thread cost depends on buffer contents"
      else begin
        let total = Ndarray.Shape.size grid in
        let stranded = (warp_size - (total mod warp_size)) mod warp_size in
        if total = 0 then
          Ok
            (zero_cost
               (Some
                  {
                    as_buffers = []; as_branches = [];
                    as_divergent_branches = 0; as_divergent_ops = 0.;
                    as_stranded_lanes = 0; as_warp_size = warp_size;
                  }))
        else
          let run, sites = instrument ~scalars ~loads:(Opaque None) kernel in
          let nsites = List.length sites in
          let bstats =
            Array.init (List.length kernel.params) (fun _ -> new_bstat ())
          in
          try
            (* Phase A, with per-buffer splits. *)
            let cost, nf =
              sample_threads run grid ~each:(fun tr ->
                  Array.iteri
                    (fun b l ->
                      if l <> [] then begin
                        bstats.(b).b_touched <- true;
                        tally bstats.(b).b_tally l
                      end)
                    tr.s_buf_addrs)
            in
            (* Phase B: three dense warps (first, middle, last) for the
               cross-lane structure the per-thread sample cannot see. *)
            let starts =
              let align l = l / warp_size * warp_size in
              List.sort_uniq compare
                [ 0; align (total / 2); align (total - 1) ]
            in
            let site_div = Array.make (max 1 nsites) false in
            let site_ops_sum = Array.make (max 1 nsites) 0 in
            let site_stores_sum = Array.make (max 1 nsites) 0 in
            let lane_count = ref 0 in
            let banks = Array.make warp_size 0 in
            List.iter
              (fun start ->
                let lanes = min warp_size (total - start) in
                let traces =
                  Array.init lanes (fun l ->
                      run (Ndarray.Index.unravel grid (start + l)))
                in
                lane_count := !lane_count + lanes;
                for s = 0 to nsites - 1 do
                  let d0 = traces.(0).s_decisions.(s) in
                  for l = 1 to lanes - 1 do
                    if traces.(l).s_decisions.(s) <> d0 then
                      site_div.(s) <- true
                  done;
                  Array.iter
                    (fun tr ->
                      site_ops_sum.(s) <- site_ops_sum.(s) + tr.s_site_ops.(s);
                      site_stores_sum.(s) <-
                        site_stores_sum.(s) + tr.s_site_stores.(s))
                    traces
                done;
                Array.iteri
                  (fun b st ->
                    let per_lane =
                      Array.map
                        (fun tr -> Array.of_list (List.rev tr.s_buf_addrs.(b)))
                        traces
                    in
                    let maxlen =
                      Array.fold_left
                        (fun m a -> max m (Array.length a))
                        0 per_lane
                    in
                    if maxlen > 0 then begin
                      st.b_touched <- true;
                      let seen = Hashtbl.create 64 in
                      for k = 0 to maxlen - 1 do
                        let step_addrs =
                          Array.fold_left
                            (fun acc a ->
                              if k < Array.length a then a.(k) :: acc else acc)
                            [] per_lane
                        in
                        let distinct = List.sort_uniq compare step_addrs in
                        st.b_events <- st.b_events + List.length step_addrs;
                        List.iter
                          (fun a ->
                            if not (Hashtbl.mem seen a) then
                              Hashtbl.add seen a ();
                            let bk = ((a mod warp_size) + warp_size) mod warp_size in
                            banks.(bk) <- banks.(bk) + 1;
                            if banks.(bk) > st.b_bank then st.b_bank <- banks.(bk))
                          distinct;
                        Array.fill banks 0 warp_size 0
                      done;
                      (* Cache-amortised coalescing: a segment fetched at
                         one transaction step stays resident for the
                         warp's later steps (the Fermi L1 assumption), so
                         efficiency is the distinct words consumed over
                         the words of the distinct segments fetched —
                         strided-burst row walks amortise to ~1.0 while a
                         transposed walk still wastes 31/32 of each line. *)
                      let segs = Hashtbl.create 16 in
                      Hashtbl.iter
                        (fun a () ->
                          let s = seg_of a in
                          if not (Hashtbl.mem segs s) then Hashtbl.add segs s ())
                        seen;
                      st.b_fetched <-
                        st.b_fetched + (warp_size * Hashtbl.length segs);
                      st.b_distinct <- st.b_distinct + Hashtbl.length seen
                    end)
                  bstats)
              starts;
            let lanes_f = float_of_int (max 1 !lane_count) in
            let branches =
              List.mapi
                (fun id label ->
                  {
                    br_site = label;
                    br_divergent = site_div.(id);
                    br_ops = float_of_int site_ops_sum.(id) /. lanes_f;
                    br_stores = float_of_int site_stores_sum.(id) /. lanes_f;
                  })
                sites
            in
            let divergent = List.filter (fun b -> b.br_divergent) branches in
            let buffers =
              List.concat
                (List.mapi
                   (fun i p ->
                     let st = bstats.(i) in
                     if p.kind = Scalar || not st.b_touched then []
                     else
                       let t = st.b_tally in
                       [
                         {
                           ba_buffer = p.pname;
                           ba_reads = float_of_int t.reads /. nf;
                           ba_class = vote t;
                           ba_burst = t.burst /. float_of_int (max 1 t.traces);
                           ba_efficiency =
                             (if st.b_fetched = 0 then 1.0
                              else
                                float_of_int st.b_distinct
                                /. float_of_int st.b_fetched);
                           ba_overlap =
                             (if st.b_events = 0 then 0.0
                              else
                                1.0
                                -. float_of_int st.b_distinct
                                   /. float_of_int st.b_events);
                           ba_bank_conflict = max 1 st.b_bank;
                         };
                       ])
                   kernel.params)
            in
            Ok
              {
                cost with
                summary =
                  Some
                    {
                      as_buffers = buffers;
                      as_branches = branches;
                      as_divergent_branches = List.length divergent;
                      as_divergent_ops =
                        List.fold_left
                          (fun acc b -> acc +. b.br_ops)
                          0. divergent;
                      as_stranded_lanes = stranded;
                      as_warp_size = warp_size;
                    };
              }
          with Static_blocked m | Kernel_error m -> Error m
      end

(* ------------------------------------------------------------------ *)
(* Store events                                                        *)
(* ------------------------------------------------------------------ *)

let iter_stores kernel ~grid f =
  match validate kernel with
  | Error m -> Error m
  | Ok () -> (
      let thread = ref 0 in
      let hook buf addr = f ~thread:!thread buf addr in
      let run, _ = instrument ~scalars:[] ~loads:(Opaque (Some hook)) kernel in
      try
        Ndarray.Index.iter grid (fun gid ->
            ignore (run gid);
            incr thread);
        Ok ()
      with Static_blocked m | Kernel_error m -> Error m)
