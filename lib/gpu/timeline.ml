type kind = Kernel | Memcpy_h2d | Memcpy_d2h | Memcpy_d2d

type event = {
  label : string;
  detail : string;
  kind : kind;
  us : float;
  start_us : float;
  bytes : int;
  threads : int;
}

type t = {
  mutable rev_events : event list;
  mutable n : int;
  mutable clock : float;  (* modelled time accumulated so far = next start *)
}

let create () = { rev_events = []; n = 0; clock = 0.0 }

let record t e =
  let e = { e with start_us = t.clock } in
  t.rev_events <- e :: t.rev_events;
  t.n <- t.n + 1;
  t.clock <- t.clock +. e.us

let events t = List.rev t.rev_events

let clear t =
  t.rev_events <- [];
  t.n <- 0;
  t.clock <- 0.0

let total_us t = t.clock

let append dst src = List.iter (record dst) (events src)

let replay t ~times =
  if times < 1 then invalid_arg "Timeline.replay";
  let base = events t in
  for _ = 2 to times do
    List.iter (record t) base
  done

let pp_kind ppf = function
  | Kernel -> Format.pp_print_string ppf "kernel"
  | Memcpy_h2d -> Format.pp_print_string ppf "memcpyHtoDasync"
  | Memcpy_d2h -> Format.pp_print_string ppf "memcpyDtoHasync"
  | Memcpy_d2d -> Format.pp_print_string ppf "memcpyPeerAsync"
