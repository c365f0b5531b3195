(* Interval-based kernel verifier.

   Walks a Gpu.Kir kernel once per static program point, propagating
   intervals for every expression: Gid d is seeded from the launch
   grid, scalar params from the supplied values (top when unknown),
   let and loop bindings extend the environment.  Reports buffer
   accesses that fall (or may fall) outside the declared lengths,
   divisions/modulos whose divisor is (or may be) zero, and parameters
   the body never mentions. *)

open Gpu

type ctx = {
  file : string;
  kname : string;
  lengths : (string * int) list;
  used : (string, unit) Hashtbl.t;
  mutable findings : Finding.t list;
}

let report ctx f = ctx.findings <- f :: ctx.findings

let mark_used ctx name = Hashtbl.replace ctx.used name ()

let check_access ctx ~write buf (idx : Interval.t) =
  mark_used ctx buf;
  match List.assoc_opt buf ctx.lengths with
  | None -> ()
  | Some len ->
      let kind = if write then Finding.Oob_write else Finding.Oob_read in
      let verb = if write then "store to" else "read of" in
      if idx.Interval.hi < 0 || idx.Interval.lo > len - 1 then
        report ctx
          (Finding.v kind Finding.Error ~file:ctx.file ~where:ctx.kname
             "%s %s[%a] is always out of bounds (length %d)" verb buf
             Interval.pp idx len)
      else if idx.Interval.lo < 0 || idx.Interval.hi > len - 1 then
        report ctx
          (Finding.v kind Finding.Warning ~file:ctx.file ~where:ctx.kname
             "%s %s[%a] may be out of bounds (length %d)" verb buf
             Interval.pp idx len)

let check_divisor ctx op (d : Interval.t) =
  let kind, name =
    match op with
    | Kir.Div -> (Finding.Div_by_zero, "division")
    | _ -> (Finding.Mod_by_zero, "modulo")
  in
  if Interval.is_const d && d.Interval.lo = 0 then
    report ctx
      (Finding.v kind Finding.Error ~file:ctx.file ~where:ctx.kname
         "%s by a divisor that is always zero" name)
  else if Interval.contains d 0 then
    report ctx
      (Finding.v kind Finding.Warning ~file:ctx.file ~where:ctx.kname
         "%s divisor %a may be zero" name Interval.pp d)

let rec eval ctx env (e : Kir.expr) : Interval.t =
  match e with
  | Kir.Int n -> Interval.of_int n
  | Kir.Gid d -> ( match List.assoc_opt (`Gid d) env with Some i -> i | None -> Interval.top)
  | Kir.Param p -> (
      mark_used ctx p;
      match List.assoc_opt (`Var p) env with Some i -> i | None -> Interval.top)
  | Kir.Var v -> (
      match List.assoc_opt (`Var v) env with Some i -> i | None -> Interval.top)
  | Kir.Read (buf, idx) ->
      let i = eval ctx env idx in
      check_access ctx ~write:false buf i;
      Interval.top
  | Kir.Bin (op, a, b) -> (
      let ia = eval ctx env a and ib = eval ctx env b in
      match op with
      | Kir.Add -> Interval.add ia ib
      | Kir.Sub -> Interval.sub ia ib
      | Kir.Mul -> Interval.mul ia ib
      | Kir.Div ->
          check_divisor ctx op ib;
          Interval.div_c ia ib
      | Kir.Mod ->
          check_divisor ctx op ib;
          Interval.mod_c ia ib
      | Kir.Min -> Interval.min_ ia ib
      | Kir.Max -> Interval.max_ ia ib
      | Kir.Lt -> Interval.lt ia ib
      | Kir.Le -> Interval.le ia ib
      | Kir.Gt -> Interval.gt ia ib
      | Kir.Ge -> Interval.ge ia ib
      | Kir.Eq -> Interval.eq ia ib
      | Kir.Ne -> Interval.ne ia ib
      | Kir.And -> Interval.and_ ia ib
      | Kir.Or -> Interval.or_ ia ib)
  | Kir.Select (c, a, b) ->
      let _ = eval ctx env c in
      Interval.join (eval ctx env a) (eval ctx env b)

let rec walk_stmt ctx env (s : Kir.stmt) =
  match s with
  | Kir.Let (name, e) -> (`Var name, eval ctx env e) :: env
  | Kir.Store (buf, idx, v) ->
      let i = eval ctx env idx in
      check_access ctx ~write:true buf i;
      let _ = eval ctx env v in
      env
  | Kir.If (c, t, f) ->
      let _ = eval ctx env c in
      let _ = walk_body ctx env t in
      let _ = walk_body ctx env f in
      env
  | Kir.For { var; lo; hi; body } ->
      let ilo = eval ctx env lo and ihi = eval ctx env hi in
      let ivar = Interval.range_excl ilo.Interval.lo ihi.Interval.hi in
      let _ = walk_body ctx ((`Var var, ivar) :: env) body in
      env

and walk_body ctx env stmts = List.fold_left (walk_stmt ctx) env stmts

(* The findings and the count the budget dropped. *)
let check_uncached ~file ~scalars ~buffers ~grid ~max_findings (k : Kir.t) =
  let ctx =
    {
      file;
      kname = k.Kir.kname;
      lengths = buffers;
      used = Hashtbl.create 16;
      findings = [];
    }
  in
  (match Kir.validate k with
  | Error m ->
      report ctx
        (Finding.v Finding.Bad_kernel Finding.Error ~file ~where:k.Kir.kname
           "kernel fails validation: %s" m)
  | Ok () ->
      if Array.length grid <> k.Kir.grid_rank then
        report ctx
          (Finding.v Finding.Bad_kernel Finding.Error ~file ~where:k.Kir.kname
             "launch grid has rank %d but kernel declares grid_rank %d"
             (Array.length grid) k.Kir.grid_rank)
      else begin
        let env =
          List.concat
            [
              Array.to_list
                (Array.mapi (fun d n -> (`Gid d, Interval.range_excl 0 n)) grid);
              List.map (fun (p, v) -> (`Var p, Interval.of_int v)) scalars;
            ]
        in
        let _ = walk_body ctx env k.Kir.body in
        List.iter
          (fun (p : Kir.param) ->
            if not (Hashtbl.mem ctx.used p.Kir.pname) then
              report ctx
                (Finding.v Finding.Unused_param Finding.Warning ~file
                   ~where:k.Kir.kname "%s %s is never used"
                   (match p.Kir.kind with
                   | Kir.Scalar -> "scalar parameter"
                   | Kir.In_buffer -> "input buffer"
                   | Kir.Out_buffer -> "output buffer")
                   p.Kir.pname))
          k.Kir.params
      end);
  let fs = List.rev ctx.findings in
  if List.length fs > max_findings then begin
    let kept = List.filteri (fun i _ -> i < max_findings) fs in
    let dropped = List.length fs - max_findings in
    ( kept
      @ [
          Finding.v Finding.Analysis_skipped Finding.Note ~file
            ~where:k.Kir.kname "%d further finding(s) suppressed (budget %d)"
            dropped max_findings;
        ],
      dropped )
  end
  else (fs, 0)

let memo = Memo.create ()

let check ?(file = "kir") ?(scalars = []) ~buffers ~grid (k : Kir.t) :
    Finding.t list =
  let max_findings = Config.findings_cap () in
  let findings, dropped =
    Memo.find_or_compute memo (file, scalars, buffers, grid, max_findings, k)
      (fun () -> check_uncached ~file ~scalars ~buffers ~grid ~max_findings k)
  in
  (* Counted per call, hit or miss: the metric reports what the callers
     were not shown. *)
  Finding.findings_dropped dropped;
  findings
