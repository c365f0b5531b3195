(* Order statistics and accounting shared by the benchmark driver and
   its unit tests.  Every function is pure. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

let median values =
  match sorted values with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(values, n=4)] with its default
   "exclusive" method, so the spreads this file reports are the ones a
   reader recomputes from the raw runs. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

let iqr_frac values =
  let q1, _, q3 = quartiles values in
  (q3 -. q1) /. median values

(* Nearest-rank percentile [p] (integer, 0..100) of a sorted array. *)
let rank n p = max 1 ((((p * n) + 99) / 100))

(* The highest whole percentile that still has at least ten samples
   above it, and its value.  With ten samples or fewer no percentile
   qualifies, and the slowest sample stands in as percentile 100. *)
let tail values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let rec go p =
    if p < 0 then (100, a.(n - 1))
    else if n - rank n p >= 10 then (p, a.(rank n p - 1))
    else go (p - 1)
  in
  go 99

(* Open-loop latency counts from when the request was due, not from
   when the generator got round to submitting it, so a generator stall
   shows up as latency instead of silently thinning the load. *)
let latency_from_due_ms ~due_s ~submit_s ~engine_latency_us =
  ((submit_s -. due_s) *. 1000.) +. (engine_latency_us /. 1000.)

type counts = {
  submitted : int;
  completed : int;
  rejected : int;
  dropped : int;
  timed_out : int;
  failed : int;
}

let no_requests =
  {
    submitted = 0;
    completed = 0;
    rejected = 0;
    dropped = 0;
    timed_out = 0;
    failed = 0;
  }

let balanced c =
  c.submitted = c.completed + c.rejected + c.dropped + c.timed_out + c.failed

(* A refused, dropped, expired or failed request misses every latency
   objective; a completed one misses when it was slower than [limit_ms]. *)
let slo_misses c ~limit_ms latencies_ms =
  c.rejected + c.dropped + c.timed_out + c.failed
  + List.length (List.filter (fun l -> l > limit_ms) latencies_ms)

(* Total length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec sweep acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> sweep acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb ->
            sweep acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> sweep (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  sweep 0. None (List.sort compare clipped)

(* A span's self time: its duration minus the part of it its children
   cover.  Children may overlap one another or run past their parent. *)
let self_time ~start ~stop children =
  stop -. start -. covered ~lo:start ~hi:stop children
