(* Static verification of compiled plans.

   Lowers a Plan.t onto the generic analyzers in lib/analysis: every
   generator-kernel goes through the interval bounds checker, each
   Device_withloop's kernels through the race/coverage checker, and
   the host program Host_walk prints and Exec runs through the
   transfer check. *)

open Ndarray

let file = "sac"

let buffer_lengths (sw : Sac.Scalarize.swith) ~out_len =
  ("out", out_len)
  :: List.map
       (fun (a, shape) -> (Kernelize.sanitize a, Shape.size shape))
       sw.Sac.Scalarize.arrays

(* Names a host block reads from the surrounding plan environment:
   free variables with proper statement scoping — block-local
   assignments and loop variables bound earlier in the block do not
   come from outside (the engine binds only declared reads at block
   entry; locals resolve inside the interpreter). *)
module Sset = Set.Make (String)

let actual_reads stmts =
  let fv e = Sset.of_list (Sac.Dce.free_vars e) in
  let use bound s acc = Sset.union acc (Sset.diff s bound) in
  let rec stmt (bound, acc) = function
    | Sac.Ast.Assign (x, e) -> (Sset.add x bound, use bound (fv e) acc)
    | Sac.Ast.Assign_idx (x, idx, e) ->
        (* an indexed update reads the array it modifies *)
        let reads = Sset.add x (Sset.union (fv idx) (fv e)) in
        (Sset.add x bound, use bound reads acc)
    | Sac.Ast.For { var; start; stop; body } ->
        let acc = use bound (Sset.union (fv start) (fv stop)) acc in
        let bound_body, acc =
          List.fold_left stmt (Sset.add var bound, acc) body
        in
        (Sset.remove var bound_body, acc)
    | Sac.Ast.Return e -> (bound, use bound (fv e) acc)
  in
  let _, acc = List.fold_left stmt (Sset.empty, Sset.empty) stmts in
  Sset.elements acc

(* The per-with-loop kernel check: bounds of every generator kernel,
   then race and cover over the group.  The plan gate, fusion and the
   autotuner's candidate gate all call this one. *)
let item_findings ~swith ~kernels ~full_cover =
  let len =
    Shape.size
      (Shape.concat swith.Sac.Scalarize.frame swith.Sac.Scalarize.cell_shape)
  in
  let buffers = buffer_lengths swith ~out_len:len in
  List.concat_map
    (fun (k, grid) -> Analysis.Kir_check.check ~file ~buffers ~grid k)
    kernels
  @ Analysis.Race.check_group ~file ~out:"out" ~len ~full_cover kernels

(* What a Route payload of the host walk reads and writes on the host:
   a host block its actual free variables and its declared writes, a
   constant array its target; a copy shares its source's value. *)
let access item =
  let open Analysis.Transfer in
  let h = List.map Host_walk.host in
  match item with
  | Plan.Host_block { stmts; writes; _ } ->
      { no_access with reads = h (actual_reads stmts); writes = h writes }
  | Plan.Const_array { target; _ } -> { no_access with writes = h [ target ] }
  | Plan.Copy { target; source } ->
      { no_access with copies = [ (Host_walk.host target, Host_walk.host source) ] }
  | Plan.Device_withloop _ -> no_access

(* A with-loop's buffer d_x computes the host value h_x. *)
let check_steps (p : Plan.t) steps =
  Analysis.Transfer.check ~file
    ~defines:(fun d -> Some ("h_" ^ String.sub d 2 (String.length d - 2)))
    ~inputs:(List.map (fun (x, _) -> Host_walk.host x) p.Plan.params)
    ~outputs:[ Host_walk.host p.Plan.result ]
    ~route:access steps

(* The liveness schedule is the plain one plus its mid-program frees,
   so checking it covers both. *)
let check (p : Plan.t) =
  List.concat_map
    (function
      | Plan.Device_withloop { swith; kernels; full_cover; _ } ->
          item_findings ~swith ~kernels ~full_cover
      | Plan.Const_array _ | Plan.Host_block _ | Plan.Copy _ -> [])
    p.Plan.items
  @
  match Host_walk.of_plan ~liveness:true p with
  | w -> check_steps p w.Host_walk.steps
  | exception Invalid_argument m ->
      [
        Analysis.Finding.v Analysis.Finding.Undefined_use Analysis.Finding.Error
          ~file ~where:"host-walk" "%s" m;
      ]

(* Performance lints: every generator kernel of every device item,
   with [split] the generator count of its originating WITH-loop — the
   quantity the timing model charges split traffic against. *)
let perf_check (p : Plan.t) =
  List.concat_map
    (fun item ->
      match item with
      | Plan.Device_withloop { kernels; _ } ->
          Analysis.Perf_lint.check_group ~file
            ~split:(List.length kernels) kernels
      | Plan.Const_array _ | Plan.Host_block _ | Plan.Copy _ -> [])
    p.Plan.items

let perf_gate (p : Plan.t) =
  Analysis.Finding.perf_gate
    ~what:(Printf.sprintf "plan for %s" p.Plan.result)
    (fun () -> perf_check p)

let gate (p : Plan.t) =
  Analysis.Finding.gate
    ~what:(Printf.sprintf "plan for %s" p.Plan.result)
    ~kernels:(Plan.kernel_count p) (fun () -> check p)
