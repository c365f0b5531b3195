(* Producer/consumer kernel fusion over the shared kernel IR.

   Both pipelines lower to one kernel per generator/repetitive task and
   materialize every intermediate array on the device.  When a producer
   group's stores into buffer B and its single consumer's reads of B are
   both affine in the grid ids, the store relation can be inverted: each
   consumer read of B[a] is replaced by the producer computation of the
   element at address [a], and B disappears together with its launches
   and its store/reload traffic.

   The proof obligations are discharged here, on the IR itself:

   - every producer store address is affine in the producer grid ids
     with positive, radix-dominant strides (each stride exceeds the
     span of the finer ones, so decomposition is unique);
   - all producer branches share one outermost stride (C, N) with
     C * N = len, and their inner address sets partition [0, C)
     exactly (pairwise disjoint by {!Ndarray.Linalg.meet}, C addresses
     together) — so every address of B is written exactly once and the
     writing branch is recovered from [addr mod C];
   - every consumer read address has one and the same residue mod C
     as a linear form in the consumer grid ids, so a single dispatch
     value selects the producer branch for all reads of a thread.

   The fused kernel computes [disp = addr0 mod C], selects the branch
   by an if-chain on disp, reconstructs the producer thread's inner
   grid ids from disp and its outer id from [addr / C] per read, and
   inlines the (renamed) producer value computation.  Store addresses
   and values of the consumer are unchanged, so the analysis gates
   (bounds, race, cover) re-verify the result; callers refuse the
   fusion if any finding appears. *)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_kernels_eliminated = Obs.Metrics.counter "fusion.kernels_eliminated"

let m_launches_saved = Obs.Metrics.counter "fusion.launches_saved"

let m_buffers_eliminated = Obs.Metrics.counter "fusion.buffers_eliminated"

let m_bytes_saved = Obs.Metrics.counter "fusion.bytes_saved"

type stats = {
  kernels_eliminated : int;
  launches_saved : int;
  buffers_eliminated : int;
  bytes_saved : int;
}

let no_stats =
  {
    kernels_eliminated = 0;
    launches_saved = 0;
    buffers_eliminated = 0;
    bytes_saved = 0;
  }

let add_stats a b =
  {
    kernels_eliminated = a.kernels_eliminated + b.kernels_eliminated;
    launches_saved = a.launches_saved + b.launches_saved;
    buffers_eliminated = a.buffers_eliminated + b.buffers_eliminated;
    bytes_saved = a.bytes_saved + b.bytes_saved;
  }

let record s =
  Obs.Metrics.add m_kernels_eliminated s.kernels_eliminated;
  Obs.Metrics.add m_launches_saved s.launches_saved;
  Obs.Metrics.add m_buffers_eliminated s.buffers_eliminated;
  Obs.Metrics.add m_bytes_saved s.bytes_saved

(* ------------------------------------------------------------------ *)
(* Affine forms over grid ids                                          *)
(* ------------------------------------------------------------------ *)

exception Not_affine of string

let fail fmt = Format.kasprintf (fun m -> raise (Not_affine m)) fmt

type aff = { base : int; terms : (int * int) list (* gid dim -> coeff *) }

let const n = { base = n; terms = [] }

let merge_terms ta tb op =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (d, k) -> Hashtbl.replace tbl d k) ta;
  List.iter
    (fun (d, k) ->
      let k0 = Option.value ~default:0 (Hashtbl.find_opt tbl d) in
      Hashtbl.replace tbl d (op k0 k))
    tb;
  Hashtbl.fold (fun d k acc -> if k = 0 then acc else (d, k) :: acc) tbl []
  |> List.sort compare

let aff_add a b =
  { base = a.base + b.base; terms = merge_terms a.terms b.terms ( + ) }

let aff_sub a b =
  { base = a.base - b.base; terms = merge_terms a.terms b.terms ( - ) }

let aff_scale c a =
  if c = 0 then const 0
  else { base = c * a.base; terms = List.map (fun (d, k) -> (d, c * k)) a.terms }

let aff_const_of a = if a.terms = [] then Some a.base else None

(* Value interval of a form when gid [d] ranges over [0, counts.(d)). *)
let aff_range counts a =
  List.fold_left
    (fun (lo, hi) (d, k) ->
      let top = k * (counts.(d) - 1) in
      (lo + min 0 top, hi + max 0 top))
    (a.base, a.base) a.terms

(* Normalise [e] to an affine form over grid ids.  Division and modulo
   by a positive literal are eliminated when provably exact: either the
   operand's interval fits inside one period, or all coefficients are
   multiples of the divisor and the operand is non-negative.  Grid
   dimensions of extent 1 contribute the constant 0. *)
let rec aff_of ~counts ~env e =
  let open Kir in
  match e with
  | Int n -> const n
  | Gid d ->
      if d < 0 || d >= Array.length counts then fail "gid%d out of grid" d
      else if counts.(d) = 1 then const 0
      else { base = 0; terms = [ (d, 1) ] }
  | Var v -> (
      match List.assoc_opt v env with
      | Some (Some a) -> a
      | _ -> fail "variable %s is not affine" v)
  | Param p -> fail "scalar parameter %s" p
  | Read (b, _) -> fail "read of %s" b
  | Select _ -> fail "select"
  | Bin (op, a, b) -> (
      match op with
      | Add -> aff_add (aff_of ~counts ~env a) (aff_of ~counts ~env b)
      | Sub -> aff_sub (aff_of ~counts ~env a) (aff_of ~counts ~env b)
      | Mul -> (
          let fa = aff_of ~counts ~env a and fb = aff_of ~counts ~env b in
          match (aff_const_of fa, aff_const_of fb) with
          | Some c, _ -> aff_scale c fb
          | _, Some c -> aff_scale c fa
          | None, None -> fail "non-linear product")
      | Div -> (
          let fa = aff_of ~counts ~env a in
          match aff_const_of (aff_of ~counts ~env b) with
          | Some c when c > 0 ->
              let lo, hi = aff_range counts fa in
              if lo >= 0 && hi < c then const 0
              else if
                lo >= 0 && fa.base >= 0
                && List.for_all (fun (_, k) -> k mod c = 0) fa.terms
              then
                {
                  base = fa.base / c;
                  terms = List.map (fun (d, k) -> (d, k / c)) fa.terms;
                }
              else fail "inexact division by %d" c
          | _ -> fail "non-literal divisor")
      | Mod -> (
          let fa = aff_of ~counts ~env a in
          match aff_const_of (aff_of ~counts ~env b) with
          | Some m when m > 0 ->
              let lo, hi = aff_range counts fa in
              if lo >= 0 && hi < m then fa
              else if
                lo >= 0
                && List.for_all (fun (_, k) -> k mod m = 0) fa.terms
              then const (fa.base mod m)
              else fail "inexact modulo by %d" m
          | _ -> fail "non-literal modulus")
      | Min | Max | Lt | Le | Gt | Ge | Eq | Ne | And | Or ->
          fail "non-affine operator")

(* ------------------------------------------------------------------ *)
(* Residue of a closed expression modulo the outer stride              *)
(* ------------------------------------------------------------------ *)

(* Canonical residue form of [e] mod [m]: coefficients and base reduced
   into [0, m).  Works on closed expressions (grid ids only) and keeps
   enough structure to see through the wrap-around [Mod]s the code
   generators emit: [x mod m'] reduces to [x] when [m] divides [m'],
   and any product with a factor divisible by [m] vanishes. *)
let residue_of ~counts ~m e =
  let reduce a =
    let base = ((a.base mod m) + m) mod m in
    let terms =
      List.filter_map
        (fun (d, k) ->
          let k = ((k mod m) + m) mod m in
          if k = 0 then None else Some (d, k))
        a.terms
    in
    { base; terms = List.sort compare terms }
  in
  let rec go e =
    let open Kir in
    match aff_of ~counts ~env:[] e with
    | a -> reduce a
    | exception Not_affine _ -> (
        match e with
        | Bin (Add, a, b) -> reduce (aff_add (go a) (go b))
        | Bin (Sub, a, b) -> reduce (aff_sub (go a) (go b))
        | Bin (Mul, a, b) -> (
            let ca =
              match aff_of ~counts ~env:[] a with
              | f -> aff_const_of f
              | exception Not_affine _ -> None
            and cb =
              match aff_of ~counts ~env:[] b with
              | f -> aff_const_of f
              | exception Not_affine _ -> None
            in
            match (ca, cb) with
            | Some c, _ when c mod m = 0 -> const 0
            | _, Some c when c mod m = 0 -> const 0
            | Some c, _ -> reduce (aff_scale c (go b))
            | _, Some c -> reduce (aff_scale c (go a))
            | None, None -> fail "non-linear product")
        | Bin (Mod, a, Int m') when m' > 0 && m' mod m = 0 -> go a
        | _ -> fail "no residue form")
  in
  go e

(* ------------------------------------------------------------------ *)
(* Producer branch analysis                                            *)
(* ------------------------------------------------------------------ *)

type branch = {
  br_kernel : Kir.t;
  br_counts : int array;
  br_lets : (string * Kir.expr) list;  (** producer lets, in order *)
  br_value : Kir.expr;  (** stored value *)
  br_base : int;
  br_outer : int;  (** producer gid dim carrying the outer stride *)
  br_inner : (int * int * int) list;
      (** (gid dim, stride, count), outermost first, strides below C *)
  br_events : int;  (** inner addresses per outer step *)
}

(* Split a straight-line body into its lets and its stores; refuse
   control flow. *)
let straight_line body =
  let lets = ref [] and stores = ref [] in
  List.iter
    (function
      | Kir.Let (v, e) -> lets := (v, e) :: !lets
      | Kir.Store (b, i, v) -> stores := (b, i, v) :: !stores
      | Kir.If _ | Kir.For _ -> fail "control flow in producer")
    body;
  (List.rev !lets, List.rev !stores)

let grid_counts k grid =
  if Array.length grid < k.Kir.grid_rank then
    fail "kernel %s: grid rank mismatch" k.Kir.kname;
  Array.sub grid 0 k.Kir.grid_rank

(* One branch per (producer kernel, store).  The store address must be
   affine with positive strides; every grid dimension of extent > 1
   must appear in it (otherwise distinct threads would collide, which
   the race gate already excludes — but we must be able to reconstruct
   the whole thread from the address). *)
let branch_of ~stores_to (pk, grid) =
  let counts = grid_counts pk grid in
  let lets, stores = straight_line pk.Kir.body in
  List.iter
    (fun (b, _, _) ->
      if b <> stores_to then fail "producer stores to %s as well" b)
    stores;
  if stores = [] then fail "producer %s stores nothing" pk.Kir.kname;
  let env =
    List.fold_left
      (fun env (v, e) ->
        let a =
          match aff_of ~counts ~env e with
          | a -> Some a
          | exception Not_affine _ -> None
        in
        (v, a) :: env)
      [] lets
  in
  List.map
    (fun (_, idx, value) ->
      let a = aff_of ~counts ~env idx in
      if a.base < 0 then fail "negative store base";
      List.iter
        (fun (_, k) -> if k <= 0 then fail "non-positive stride")
        a.terms;
      Array.iteri
        (fun d n ->
          if n > 1 && not (List.mem_assoc d a.terms) then
            fail "grid dim %d absent from store address" d)
        counts;
      (* Sort strides outermost first and check radix dominance: each
         stride must exceed the span of all finer ones plus the base,
         so address decomposition is unique. *)
      let dims =
        List.sort
          (fun (_, k1) (_, k2) -> compare k2 k1)
          (List.map (fun (d, k) -> (d, k)) a.terms)
      in
      let rec dominant = function
        | [] -> 0
        | (d, k) :: rest ->
            let span = dominant rest in
            if k <= span then fail "stride %d not radix-dominant" k;
            (k * (counts.(d) - 1)) + span
      in
      ignore (dominant dims);
      match dims with
      | [] -> fail "store address has no grid strides"
      | (outer_dim, outer_stride) :: inner ->
          let inner =
            List.map (fun (d, k) -> (d, k, counts.(d))) inner
          in
          let events =
            List.fold_left (fun acc (_, _, n) -> acc * n) 1 inner
          in
          {
            br_kernel = pk;
            br_counts = counts;
            br_lets = lets;
            br_value = value;
            br_base = a.base;
            br_outer = outer_dim;
            br_inner = inner;
            br_events = events;
          }
          |> fun br -> (outer_stride, counts.(outer_dim), br))
    stores

(* Check the producer branches jointly write every address of
   [0, len) exactly once, with a common outermost stride (c, n);
   return the branches sorted by descending inner population.  A
   branch's inner set is injective (radix-dominant strides) and inside
   [0, c) (no spill), so the sets partition [0, c) when they are
   pairwise disjoint and hold c addresses together. *)
let partition ~len branches =
  match branches with
  | [] -> fail "no producer stores"
  | (c, n, _) :: _ ->
      if c <= 0 then fail "outer stride %d out of range" c;
      if c * n <> len then fail "outer stride %d * %d <> length %d" c n len;
      List.iter
        (fun (c', n', br) ->
          if c' <> c || n' <> n then
            fail "branches disagree on the outer stride";
          let inner_span =
            List.fold_left (fun acc (_, k, n) -> acc + (k * (n - 1))) 0
              br.br_inner
          in
          if br.br_base + inner_span >= c then
            fail "branch spills over the outer stride")
        branches;
      let branches = List.map (fun (_, _, br) -> br) branches in
      let inner br = (br.br_base, List.map (fun (_, k, n) -> (k, n)) br.br_inner) in
      let rec pairwise = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                if Ndarray.Linalg.meet (inner a) (inner b) <> No_solution then
                  fail "branches overlap")
              rest;
            pairwise rest
      in
      pairwise branches;
      let events = List.fold_left (fun acc br -> acc + br.br_events) 0 branches in
      if events <> c then fail "branches write %d of %d inner addresses" events c;
      let branches =
        List.sort (fun a b -> compare b.br_events a.br_events) branches
      in
      (c, branches)

(* ------------------------------------------------------------------ *)
(* Consumer analysis                                                   *)
(* ------------------------------------------------------------------ *)

(* Close an expression over the grid ids by substituting let
   definitions (straight-line bodies are single-assignment). *)
let rec close subst e =
  let open Kir in
  match e with
  | Int _ | Gid _ | Param _ -> e
  | Var v -> ( match List.assoc_opt v subst with Some d -> d | None -> e)
  | Read (b, i) -> Read (b, close subst i)
  | Bin (op, a, b) -> Bin (op, close subst a, close subst b)
  | Select (c, a, b) -> Select (close subst c, close subst a, close subst b)

let rec expr_reads ~from acc e =
  let open Kir in
  match e with
  | Int _ | Gid _ | Param _ | Var _ -> acc
  | Read (b, i) ->
      let acc = expr_reads ~from acc i in
      if b = from && not (List.exists (fun a -> a = i) acc) then i :: acc
      else acc
  | Bin (_, a, b) -> expr_reads ~from (expr_reads ~from acc a) b
  | Select (c, a, b) ->
      expr_reads ~from (expr_reads ~from (expr_reads ~from acc c) a) b

let rec subst_expr f e =
  let open Kir in
  match f e with
  | Some e' -> e'
  | None -> (
      match e with
      | Int _ | Gid _ | Param _ | Var _ -> e
      | Read (b, i) -> Read (b, subst_expr f i)
      | Bin (op, a, b) -> Bin (op, subst_expr f a, subst_expr f b)
      | Select (c, a, b) ->
          Select (subst_expr f c, subst_expr f a, subst_expr f b))

(* ------------------------------------------------------------------ *)
(* Fused kernel construction                                           *)
(* ------------------------------------------------------------------ *)

(* Variables used (transitively) by [e] within the ordered lets. *)
let needed_lets lets e =
  let module S = Set.Make (String) in
  let rec vars acc e =
    let open Kir in
    match e with
    | Int _ | Gid _ | Param _ -> acc
    | Var v -> S.add v acc
    | Read (_, i) -> vars acc i
    | Bin (_, a, b) -> vars (vars acc a) b
    | Select (c, a, b) -> vars (vars (vars acc c) a) b
  in
  let need = ref (vars S.empty e) in
  let keep =
    List.rev_map
      (fun (v, d) ->
        let k = S.mem v !need in
        if k then need := S.union (vars S.empty d) (S.remove v !need);
        (v, d, k))
      (List.rev lets)
  in
  List.filter_map (fun (v, d, k) -> if k then Some (v, d) else None) keep

(* The branch-selection condition over the dispatch variable: the
   radix decomposition of [disp - base] must land inside every inner
   extent and leave remainder zero. *)
let branch_condition ~disp br =
  let open Kir in
  let d0 = Bin (Sub, Var disp, Int br.br_base) in
  let conds = ref [ Bin (Ge, d0, Int 0) ] in
  let rem = ref d0 in
  List.iter
    (fun (_, k, n) ->
      conds := Bin (Lt, Bin (Div, !rem, Int k), Int n) :: !conds;
      rem := Bin (Mod, !rem, Int k))
    br.br_inner;
  conds := Bin (Eq, !rem, Int 0) :: !conds;
  match List.rev !conds with
  | [] -> assert false
  | c :: rest -> List.fold_left (fun acc c -> Bin (And, acc, c)) c rest

(* Lets reconstructing the producer's inner grid ids from the dispatch
   value, shared by all reads of one branch. *)
let inner_coord_lets ~prefix ~disp br =
  let open Kir in
  let lets = ref [] in
  let rem = ref (Bin (Sub, Var disp, Int br.br_base)) in
  let coords =
    List.mapi
      (fun j (d, k, _) ->
        let q = Printf.sprintf "%sq%d" prefix j in
        lets := Let (q, Bin (Div, !rem, Int k)) :: !lets;
        rem := Bin (Mod, !rem, Int k);
        (d, q))
      br.br_inner
  in
  (List.rev !lets, coords)

(* Instantiate branch [br]'s stored-value computation for the element
   at closed address [addr]: outer id from [addr / c], inner ids from
   the shared coordinate lets, producer lets renamed with [prefix]. *)
let instantiate ~c ~prefix ~coords ~addr br =
  let open Kir in
  let a_v = prefix ^ "a" in
  let g_v = prefix ^ "g" in
  let gid_subst = function
    | Gid d ->
        if d = br.br_outer then Some (Var g_v)
        else if br.br_counts.(d) = 1 then Some (Int 0)
        else (
          match List.assoc_opt d coords with
          | Some q -> Some (Var q)
          | None -> fail "unreconstructed producer gid%d" d)
    | Var v when List.mem_assoc v br.br_lets -> Some (Var (prefix ^ v))
    | _ -> None
  in
  let lets = needed_lets br.br_lets br.br_value in
  let body =
    List.map (fun (v, d) -> Let (prefix ^ v, subst_expr gid_subst d)) lets
  in
  let value = subst_expr gid_subst br.br_value in
  ( [ Let (a_v, addr); Let (g_v, Bin (Div, Var a_v, Int c)) ] @ body,
    value )

type fusion = { fused : Kir.t; saved_launches : int }

(* Fuse the [producers] of buffer [stores_to]/[reads_from] (its name in
   the producer resp. consumer kernel) into [consumer].  [len] is the
   intermediate buffer's length, [grid] the consumer launch grid. *)
let fuse_kernel ~stores_to ~len ~producers ~reads_from ~consumer ~grid =
  try
    let branches =
      List.concat_map (branch_of ~stores_to) producers
    in
    let c, branches = partition ~len branches in
    let counts = grid_counts consumer grid in
    let lets, stores = straight_line consumer.Kir.body in
    if stores = [] then fail "consumer stores nothing";
    (* Close every read address of the intermediate over the grid ids
       and check they agree on one residue mod c. *)
    let subst =
      List.fold_left
        (fun subst (v, e) -> (v, close subst e) :: subst)
        [] lets
    in
    let reads =
      List.fold_left
        (fun acc (v, e) -> ignore v; expr_reads ~from:reads_from acc e)
        [] lets
    in
    let reads =
      List.fold_left
        (fun acc (_, i, v) ->
          expr_reads ~from:reads_from (expr_reads ~from:reads_from acc i) v)
        reads stores
    in
    let reads = List.rev reads in
    if reads = [] then fail "consumer never reads %s" reads_from;
    List.iter
      (fun a ->
        if expr_reads ~from:reads_from [] a <> [] then
          fail "read address depends on %s itself" reads_from)
      reads;
    let closed = List.map (fun a -> (a, close subst a)) reads in
    let rho =
      match closed with
      | [] -> assert false
      | (_, a0) :: rest ->
          let r0 = residue_of ~counts ~m:c a0 in
          List.iter
            (fun (_, a) ->
              if residue_of ~counts ~m:c a <> r0 then
                fail "reads disagree on the residue mod %d" c)
            rest;
          r0
    in
    ignore rho;
    (* Build the fused body: one dispatch let, then an if-chain over
       the branches (most populous last, unguarded). *)
    let disp = "fz_disp" in
    let disp_let =
      match closed with
      | (_, a0) :: _ -> Kir.Let (disp, Kir.Bin (Kir.Mod, a0, Kir.Int c))
      | [] -> assert false
    in
    let branch_body bi br =
      let bprefix = Printf.sprintf "fz%d_" bi in
      let coord_lets, coords = inner_coord_lets ~prefix:bprefix ~disp br in
      let read_lets = ref [] in
      let replace =
        List.mapi
          (fun ri (orig, closed_a) ->
            let rprefix = Printf.sprintf "%sr%d_" bprefix ri in
            let lets, value =
              instantiate ~c ~prefix:rprefix ~coords ~addr:closed_a br
            in
            let v = rprefix ^ "v" in
            read_lets := !read_lets @ lets @ [ Kir.Let (v, value) ];
            (orig, v))
          closed
      in
      let swap e =
        match e with
        | Kir.Read (b, i) when b = reads_from -> (
            match
              List.find_opt (fun (orig, _) -> orig = i) replace
            with
            | Some (_, v) -> Some (Kir.Var v)
            | None -> fail "unmatched read of %s" reads_from)
        | _ -> None
      in
      let consumer_body =
        List.map (fun (v, e) -> Kir.Let (v, subst_expr swap e)) lets
        @ List.map
            (fun (b, i, v) ->
              Kir.Store (b, subst_expr swap i, subst_expr swap v))
            stores
      in
      coord_lets @ !read_lets @ consumer_body
    in
    let rec chain bi = function
      | [] -> fail "no branches"
      | [ br ] -> branch_body bi br
      | br :: rest ->
          [
            Kir.If
              (branch_condition ~disp br, branch_body bi br, chain (bi + 1) rest);
          ]
    in
    let body = disp_let :: chain 0 branches in
    let params =
      List.filter (fun p -> p.Kir.pname <> reads_from) consumer.Kir.params
      @ List.concat_map
          (fun (pk, _) ->
            List.filter
              (fun p ->
                p.Kir.pname <> stores_to
                && (not
                      (List.exists
                         (fun q -> q.Kir.pname = p.Kir.pname)
                         consumer.Kir.params))
                && p.Kir.pname <> reads_from)
              pk.Kir.params)
          producers
    in
    let params =
      (* A buffer may feed several producer kernels: keep one copy. *)
      List.fold_left
        (fun acc p ->
          if List.exists (fun q -> q.Kir.pname = p.Kir.pname) acc then acc
          else acc @ [ p ])
        [] params
    in
    let fused =
      {
        Kir.kname = consumer.Kir.kname ^ "_f";
        params;
        grid_rank = consumer.Kir.grid_rank;
        body;
      }
    in
    (match Kir.validate fused with
    | Ok () -> ()
    | Error m -> fail "fused kernel invalid: %s" m);
    Ok { fused; saved_launches = List.length producers }
  with Not_affine m -> Error m
