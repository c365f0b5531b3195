(* Proven per-thread access structure of kernel buffer reads.

   Where {!Gpu.Kir.static_cost} derives a kernel's memory behaviour by
   (data-free) interpretation of sampled threads, this module derives
   the same structure symbolically: every buffer read's index is
   recovered as an affine form over the (split) grid variables via
   {!Affine.form_of}, loops with constant bounds are unrolled, and the
   per-thread read sequence becomes a list of forms in issue order.
   When every consecutive pair of forms differs by a constant, the gap
   sequence — and with it the Row/Column/Gather class and the burst
   length — is *proven*: it is identical for every thread of the
   launch, not an extrapolation from samples.

   Reads under data-divergent control (an [If] whose condition varies
   with the grid ids) are collected but flagged, and a kernel whose
   guarded reads dominate reports [None] for the proven class: the
   sampled classification of [static_cost] is then the only evidence.

   The lane stride — the address distance between adjacent lanes of a
   warp, the quantity coalescing actually depends on — is the form's
   coefficient on the fastest-varying grid variable (the last grid
   dimension under row-major linearisation, or its remainder variable
   when that dimension is split). *)

open Gpu

type read_site = {
  rs_buffer : string;
  rs_form : Affine.form;
  rs_guarded : bool;  (** read sits under a grid-dependent branch *)
}

type buffer_profile = {
  bp_buffer : string;
  bp_sites : int;  (** loop-expanded read sites per thread *)
  bp_guarded_sites : int;
  bp_class : [ `Row | `Column | `Gather ] option;
      (** proven class of the unguarded per-thread read sequence;
          [None] when some consecutive gap is not a constant *)
  bp_burst : float option;
      (** proven mean consecutive-address run length *)
  bp_lane_stride : int option;
      (** proven address delta between adjacent warp lanes, when every
          site agrees on the lane coefficient *)
}

type t = {
  a_buffers : buffer_profile list;  (** in kernel-parameter order *)
  a_exact : bool;  (** no guarded or abandoned reads anywhere *)
}

(* Unrolling budget for constant-bound loops; generated window loops
   are 11- or 14-trip, so this is generous. *)
let unroll_cap = 4096

exception Abandon

(* Collect the per-thread read sites in issue order.  [guarded] marks
   reads under a grid-dependent branch; constant-condition branches
   contribute only the taken arm, like execution would. *)
let collect_sites ~grid ~splits ~scalars (k : Kir.t) =
  let sites = ref [] in
  let inexact = ref false in
  let emit ~guarded buf form =
    sites := { rs_buffer = buf; rs_form = form; rs_guarded = guarded } :: !sites
  in
  (* Evaluate an expression to a constant when it is grid-free, for
     loop bounds and branch conditions. *)
  let const_of env e =
    match
      let exact = ref true in
      Affine.form_of ~grid ~splits ~env ~exact e
    with
    | { Affine.const; terms = [] } -> Some const
    | _ -> None
    | exception Affine.Not_affine -> None
  in
  let rec expr env ~guarded e =
    match e with
    | Kir.Int _ | Kir.Gid _ | Kir.Var _ -> ()
    | Kir.Param _ -> ()
    | Kir.Read (buf, idx) -> (
        expr env ~guarded idx;
        let exact = ref true in
        match Affine.form_of ~grid ~splits ~env ~exact idx with
        | f ->
            if not !exact then inexact := true;
            emit ~guarded buf f
        | exception Affine.Not_affine ->
            inexact := true;
            raise Abandon)
    | Kir.Bin (_, a, b) ->
        expr env ~guarded a;
        expr env ~guarded b
    | Kir.Select (c, a, b) -> (
        expr env ~guarded c;
        match const_of env c with
        | Some v -> expr env ~guarded (if v <> 0 then a else b)
        | None ->
            expr env ~guarded:true a;
            expr env ~guarded:true b)
  in
  let bind env name e =
    match
      let exact = ref true in
      let f = Affine.form_of ~grid ~splits ~env ~exact e in
      (f, !exact)
    with
    | binding -> (name, binding) :: env
    | exception Affine.Not_affine -> List.remove_assoc name env
  in
  let rec stmts env ~guarded = function
    | [] -> env
    | Kir.Let (name, e) :: rest ->
        expr env ~guarded e;
        stmts (bind env name e) ~guarded rest
    | Kir.Store (_, idx, v) :: rest ->
        expr env ~guarded idx;
        expr env ~guarded v;
        stmts env ~guarded rest
    | Kir.If (c, t, f) :: rest ->
        expr env ~guarded c;
        (match const_of env c with
        | Some v -> ignore (stmts env ~guarded (if v <> 0 then t else f))
        | None ->
            ignore (stmts env ~guarded:true t);
            ignore (stmts env ~guarded:true f));
        stmts env ~guarded rest
    | Kir.For { var; lo; hi; body } :: rest ->
        expr env ~guarded lo;
        expr env ~guarded hi;
        (match (const_of env lo, const_of env hi) with
        | Some l, Some h when h - l <= unroll_cap ->
            for i = l to h - 1 do
              let env =
                (var, (Affine.const_form i, true))
                :: List.remove_assoc var env
              in
              ignore (stmts env ~guarded body)
            done
        | _ ->
            inexact := true;
            raise Abandon);
        stmts env ~guarded rest
  in
  (* Scalar parameters with known values enter the environment as
     constant forms, so SAC-style width scalars stay affine. *)
  let env0 =
    List.map (fun (n, v) -> (n, (Affine.const_form v, true))) scalars
  in
  match stmts env0 ~guarded:false k.Kir.body with
  | _ -> Some (List.rev !sites, not !inexact)
  | exception Abandon -> None

(* The fastest-varying grid variable under row-major linearisation:
   adjacent lanes of a warp differ by 1 in it (until they wrap). *)
let lane_var ~grid ~splits =
  let d = Array.length grid - 1 in
  if d < 0 then None
  else
    match Hashtbl.find_opt splits d with
    | Some w -> Some (Affine.R (d, w))
    | None -> Some (Affine.G d)

let coeff_of v (f : Affine.form) =
  match List.assoc_opt v f.Affine.terms with Some c -> c | None -> 0

(* Classification thresholds shared with [Kir.classify_addrs]. *)
let classify_gaps gaps =
  match gaps with
  | [] -> `Row
  | _ ->
      let a = Array.of_list (List.map abs gaps) in
      Array.sort compare a;
      let median = a.(Array.length a / 2) in
      if median <= 2 then `Row
      else if median >= 8 then
        let uniform = Array.for_all (fun g -> g = a.(0) || g <= 2) a in
        if uniform then `Column else `Gather
      else `Gather

let burst_of_gaps gaps =
  let n = List.length gaps + 1 in
  let runs = 1 + List.length (List.filter (fun g -> abs g <> 1) gaps) in
  float_of_int n /. float_of_int runs

let profile_buffer ~lane (name, sites) =
  let unguarded = List.filter (fun s -> not s.rs_guarded) sites in
  let forms = List.map (fun s -> s.rs_form) unguarded in
  (* Consecutive deltas of the per-thread issue sequence; proven only
     when every delta is a constant form. *)
  let rec deltas = function
    | a :: (b :: _ as rest) ->
        Option.bind (deltas rest) (fun ds ->
            match Affine.sub_forms b a with
            | { Affine.const; terms = [] } -> Some (const :: ds)
            | _ -> None)
    | _ -> Some []
  in
  let proven =
    match (unguarded, deltas forms) with
    | [], _ -> None
    | _ :: _, Some ds -> Some ds
    | _, None -> None
  in
  let lane_stride =
    match (lane, forms) with
    | Some v, f :: rest ->
        let c = coeff_of v f in
        if List.for_all (fun g -> coeff_of v g = c) rest then Some c
        else None
    | _ -> None
  in
  {
    bp_buffer = name;
    bp_sites = List.length sites;
    bp_guarded_sites =
      List.length (List.filter (fun s -> s.rs_guarded) sites);
    bp_class = Option.map classify_gaps proven;
    bp_burst = Option.map burst_of_gaps proven;
    bp_lane_stride = lane_stride;
  }

let analyze ?(scalars = []) ~grid (k : Kir.t) =
  match Affine.collect_splits k with
  | exception Affine.Not_affine -> None
  | splits -> (
      match collect_sites ~grid ~splits ~scalars k with
      | None -> None
      | Some (sites, exact) ->
          let lane = lane_var ~grid ~splits in
          let buffers =
            List.filter_map
              (fun (p : Kir.param) ->
                match p.Kir.kind with
                | Kir.Scalar -> None
                | _ -> (
                    match
                      List.filter
                        (fun s -> s.rs_buffer = p.Kir.pname)
                        sites
                    with
                    | [] -> None
                    | bsites ->
                        Some (profile_buffer ~lane (p.Kir.pname, bsites))))
              k.Kir.params
          in
          Some { a_buffers = buffers; a_exact = exact })
