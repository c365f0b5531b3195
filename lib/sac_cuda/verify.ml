(* Static verification of compiled plans.

   Lowers a Plan.t onto the generic analyzers in lib/analysis: every
   generator-kernel goes through the interval bounds checker, each
   Device_withloop's kernels through the race/coverage checker, and
   the item list through the residency dataflow that replays the
   implicit-transfer discipline of Host_walk. *)

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

let kernel_findings (p : Plan.t) =
  List.concat_map
    (fun item ->
      match item with
      | Plan.Device_withloop { swith; kernels; full_cover; _ } ->
          let out_shape =
            Shape.concat swith.Sac.Scalarize.frame
              swith.Sac.Scalarize.cell_shape
          in
          let len = Shape.size out_shape in
          let buffers = buffer_lengths swith ~out_len:len in
          List.concat_map
            (fun (k, grid) ->
              Analysis.Kir_check.check ~file ~buffers ~grid k)
            kernels
          @ Analysis.Race.check_group ~file ~out:"out" ~len ~full_cover kernels
      | Plan.Const_array _ | Plan.Host_block _ | Plan.Copy _ -> [])
    p.Plan.items

let residency_findings (p : Plan.t) =
  let items =
    List.mapi
      (fun i item ->
        let where s = Printf.sprintf "item%d(%s)" i s in
        match item with
        | Plan.Const_array { target; _ } ->
            Analysis.Residency.Def { target; label = where ("const " ^ target) }
        | Plan.Copy { target; source } ->
            Analysis.Residency.Alias
              { target; source; label = where ("copy " ^ target) }
        | Plan.Device_withloop { target; swith; full_cover; label; _ } ->
            let reads_device = List.map fst swith.Sac.Scalarize.arrays in
            let reads_host =
              match (full_cover, swith.Sac.Scalarize.base) with
              | false, Sac.Scalarize.Base_array b -> [ b ]
              | _ -> []
            in
            Analysis.Residency.Launch
              { target; reads_device; reads_host; label = where label }
        | Plan.Host_block { stmts; reads; writes } ->
            Analysis.Residency.Host
              {
                declared = reads;
                actual = actual_reads stmts;
                writes;
                label = where "host-block";
              })
      p.Plan.items
  in
  Analysis.Residency.check ~file ~params:(List.map fst p.Plan.params)
    ~result:p.Plan.result items

let check (p : Plan.t) = kernel_findings p @ residency_findings p

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
  match Analysis.Config.perf_mode () with
  | Analysis.Config.Off -> Ok ()
  | Analysis.Config.Lint | Analysis.Config.Strict ->
      Analysis.Finding.perf_gate
        ~what:(Printf.sprintf "plan for %s" p.Plan.result)
        (perf_check p)

let gate (p : Plan.t) =
  match Analysis.Config.mode () with
  | Analysis.Config.Off -> Ok ()
  | Analysis.Config.Lint | Analysis.Config.Strict ->
      let findings = check p in
      Analysis.Finding.kernels_checked (Plan.kernel_count p);
      Analysis.Finding.plan_checked ();
      Analysis.Finding.gate ~what:(Printf.sprintf "plan for %s" p.Plan.result)
        findings
