(** Process-wide metrics registry: counters, gauges and histograms.

    Instrumentation sites create their metrics once (module
    initialisation) and update them with lock-free atomic arithmetic,
    so collection is always on and costs a few machine instructions per
    event — no allocation, no locks.  Rendering (text or JSON) is the
    only operation that walks the registry, and its output is sorted by
    metric name so repeated runs diff cleanly. *)

type counter

type gauge

type histogram

val counter : string -> counter
(** Get or create the counter [name].  Raises [Invalid_argument] if
    [name] is already registered as a different metric type. *)

val add : counter -> int -> unit

val incr : counter -> unit

val value : counter -> int

val gauge : string -> gauge

val set : gauge -> int -> unit

val set_max : gauge -> int -> unit
(** Monotone update: keep the maximum of the current value and [v]
    (high-water marks). *)

val histogram : ?bounds:int array -> string -> histogram
(** Get or create a histogram with ascending integer bucket upper
    bounds (plus an implicit overflow bucket). *)

val observe : histogram -> int -> unit

val find : string -> int option
(** Value of a registered counter or gauge (count for a histogram) by
    name; [None] when unregistered. *)

val histogram_snapshot : string -> (int * int * (string * int) list) option
(** [(count, sum, buckets)] of the named histogram; buckets are disjoint
    [(upper-bound label, count)] pairs with a final ["inf"] overflow.
    [None] when the name is unregistered or not a histogram. *)

val render_text : ?format:[ `Plain | `Prometheus ] -> unit -> string
(** [`Plain] (default): one [name value] line per metric; histograms
    expand to [.count]/[.sum]/[.le.<bound>] lines.  [`Prometheus]:
    exposition text format — [# TYPE] lines, names sanitised to
    [[a-zA-Z0-9_:]], histograms as cumulative [_bucket{le="..."}] plus
    [_sum]/[_count]. *)

val render_json : unit -> string

val write_file : string -> unit
(** Render to a file: JSON when the path ends in [.json], Prometheus
    exposition when it ends in [.prom], plain text otherwise. *)
