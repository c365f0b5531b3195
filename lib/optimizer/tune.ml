(* The rewrite-search driver shared by both compile routes.

   The search state carries the plan, the fusion savings accumulated so
   far (so the winner reports honest fusion stats) and the previous
   state (so "fission" can undo a harmful fusion -- the inverse rewrite
   the beam needs to back out of a dead end).  Plan-specific knowledge
   -- pricing, identity, fusion and per-unit rewriting, each behind the
   representation's own analysis gates -- comes from the view. *)

type 'p view = {
  pipeline : string;
  device : string;
  shape : 'p -> int * int;
  cost : 'p -> float;
  fingerprint : 'p -> string;
  canonical : 'p -> string * (string -> string);
  fuse_candidates :
    'p -> (string * (unit -> ('p * Gpu.Fuse.stats) option)) list;
  fuse_all : 'p -> 'p * Gpu.Fuse.stats;
  units : 'p -> (string * int list) list;
  rewrite :
    'p ->
    string ->
    (Gpu.Kir.t * int array -> (Gpu.Kir.t * int array) option) ->
    'p option;
}

type 'p state = { plan : 'p; fstats : Gpu.Fuse.stats; undo : 'p state option }

let init plan = { plan; fstats = Gpu.Fuse.no_stats; undo = None }

(* The search scores hundreds of candidates per tune, and timing-only
   runs never read their inputs back mutated, so one synthetic payload
   per length is shared across evaluations and both routes. *)
let pool_lock = Mutex.create ()

let pool : (int, int array) Hashtbl.t = Hashtbl.create 8

let synthetic n =
  Mutex.lock pool_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock pool_lock)
    (fun () ->
      match Hashtbl.find_opt pool n with
      | Some a -> a
      | None ->
          let a = Array.init n (fun i -> i mod 251) in
          Hashtbl.replace pool n a;
          a)

let moves view st =
  let fused (p, s) =
    { plan = p; fstats = Gpu.Fuse.add_stats st.fstats s; undo = Some st }
  in
  let fuse_all =
    (* Fusion to fixpoint in one move: makes the fixed --fuse plan a
       depth-1 candidate, so the tuned plan is never modelled slower
       than either fixed mode. *)
    {
      Search.rule = "fuse!";
      apply =
        (fun () ->
          let ((_, s) as r) = view.fuse_all st.plan in
          if s.Gpu.Fuse.kernels_eliminated = 0 then None else Some (fused r));
    }
  in
  let fuse_moves =
    List.map
      (fun (rule, apply) ->
        { Search.rule; apply = (fun () -> Option.map fused (apply ())) })
      (view.fuse_candidates st.plan)
  in
  let fission =
    match st.undo with
    | None -> []
    | Some prev ->
        [ { Search.rule = "fission"; apply = (fun () -> Some prev) } ]
  in
  let rewrite u rule =
    Option.map
      (fun plan -> { plan; fstats = st.fstats; undo = Some st })
      (view.rewrite st.plan u rule)
  in
  let per_unit =
    List.concat_map
      (fun (u, factors) ->
        {
          Search.rule = "interchange:" ^ u;
          apply = (fun () -> rewrite u Rules.interchange);
        }
        :: List.map
             (fun factor ->
               {
                 Search.rule = Printf.sprintf "tile:%s:x%d" u factor;
                 apply = (fun () -> rewrite u (Rules.tile ~factor));
               })
             factors)
      (view.units st.plan)
  in
  (fuse_all :: fuse_moves) @ fission @ per_unit

let tune view p =
  Obs.Tracer.with_span ~cat:view.pipeline (view.pipeline ^ ".autotune")
  @@ fun () ->
  let rows, cols = view.shape p in
  let digest, canon = view.canonical p in
  let key =
    Cache.key ~pipeline:view.pipeline ~rows ~cols ~device:view.device ~digest
  in
  let start = init p in
  let tuned =
    Cache.find_or_tune ~key (fun () ->
        let o =
          Search.run
            ~cost:(fun st -> view.cost st.plan)
            ~fingerprint:(fun st -> view.fingerprint st.plan)
            ~moves:(moves view) start
        in
        {
          Cache.rules = List.map canon o.Search.path;
          tuned_us = o.Search.best_cost;
          base_us = o.Search.base_cost;
        })
  in
  (* Replay the memoised path on this caller's own plan (which may
     carry different labels or gensym numbers); each step re-verifies.
     A diverging replay falls back to the unoptimised plan. *)
  match Search.replay ~canon ~moves:(moves view) start tuned.Cache.rules with
  | Some (st, rules) -> (st.plan, st.fstats, rules)
  | None -> (p, Gpu.Fuse.no_stats, [])
