(** Live metrics: a process-wide registry of labeled counters, gauges and
    histograms, with Prometheus-style text exposition and a sim-clock-driven
    snapshot scraper (cf. Legion's runtime accounting, reproduced here as a
    service-side metrics plane rather than a post-hoc profile).

    {b Determinism.} Like [Trace] spans, every metric on the simulated clock
    is emitted on the reducing domain in piece order (or on the sequential
    serve loop), so snapshots and exposition text are byte-identical across
    [--domains] settings.  Histograms are log-bucketed with precomputed
    boundaries: an observation lands in a bucket by binary search (no libm
    calls) and quantiles are read off bucket upper boundaries from integer
    counts alone, so p50/p95/p99 carry no float-summation-order hazard.
    Metric families that are inherently wall-clock or configuration
    dependent (pool worker counts, auto-search wall seconds) are registered
    with [~wall:true] and excluded from snapshots and exposition unless
    explicitly requested.

    {b Cost when disabled.} {!null} is a shared disabled registry; every
    mutation first checks {!enabled} (one immutable bool field), so an
    uninstrumented hot path pays a single branch and allocates nothing.

    {b Label cardinality.} Labels multiply series: keep every label drawn
    from a small closed set (outcome, shed reason, fault kind, query name,
    tenant id).  Never label by job id, digest, or timestamp. *)

type kind = Counter | Gauge | Histogram

type t

(** A fresh enabled registry. *)
val create : unit -> t

(** The shared disabled registry: every mutation is a no-op. *)
val null : t

val enabled : t -> bool

(** {1 Ambient default}

    Mirrors [Fault.default]: the CLI installs a registry for the whole
    process; instrumented libraries write to this.  The initial default is
    {!null}. *)

val default : unit -> t

val set_default : t -> unit

(** {1 Mutation}

    Families are created on first use with the kind implied by the mutation
    ([inc] → counter, [set] → gauge, [observe] → histogram); using one name
    with two kinds raises [Invalid_argument].  A family's [~wall]/[~help]/
    [~buckets] attributes are fixed by whichever call creates it.  Labels
    are sorted internally, so label order never distinguishes series. *)

(** [inc t ?labels ?by name] adds [by] (default [1.]) to a counter.
    Negative or non-finite increments raise [Invalid_argument]. *)
val inc :
  t ->
  ?labels:(string * string) list ->
  ?by:float ->
  ?help:string ->
  ?wall:bool ->
  string ->
  unit

(** [set t ?labels name v] sets a gauge to [v]. *)
val set :
  t ->
  ?labels:(string * string) list ->
  ?help:string ->
  ?wall:bool ->
  string ->
  float ->
  unit

(** [observe t ?labels name v] records [v] into a histogram.  Buckets default
    to powers of two from [2^-20] (~1 µs) to [2^14] s; pass [?buckets]
    (strictly increasing, finite) on the call that creates the family to
    override. *)
val observe :
  t ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  ?help:string ->
  ?wall:bool ->
  string ->
  float ->
  unit

(** {1 Reading} *)

(** Current value of a counter or gauge series, if it exists. *)
val value : t -> ?labels:(string * string) list -> string -> float option

(** [quantile t ?labels name q] for [q] in [(0, 1]]: the upper boundary of
    the histogram bucket containing observation rank [ceil (q * count)]
    (the last finite boundary for overflow observations).  [None] if the
    series is missing or empty.  Deterministic: a pure function of integer
    bucket counts and the precomputed boundaries. *)
val quantile : t -> ?labels:(string * string) list -> string -> float -> float option

(** Count and sum of a histogram series, if it exists. *)
val hist_stats : t -> ?labels:(string * string) list -> string -> (int * float) option

type sample = {
  sm_name : string;  (** family name, or derived [_count]/[_sum]/[_p50]/[_p95]/[_p99] *)
  sm_labels : (string * string) list;  (** sorted by label name *)
  sm_value : float;
}

(** Flat view of the registry, sorted by (name, labels).  Histogram series
    flatten to [_count]/[_sum]/[_p50]/[_p95]/[_p99] samples (quantiles are
    omitted while a histogram is empty).  Wall-flagged families are skipped
    unless [~wall:true]. *)
val snapshot : ?wall:bool -> t -> sample list

(** [name{k=v;k2=v2}] — the CSV/JSONL series id ([;]-separated so the id
    never contains a comma). *)
val sample_id : sample -> string

(** Prometheus text exposition ([# HELP]/[# TYPE], [_bucket{le=...}],
    [_sum], [_count]); families sorted by name, series by labels.
    Wall-flagged families are skipped unless [~wall:true]. *)
val expose : ?wall:bool -> t -> string

(** {1 Snapshot scraping}

    A scraper ties a registry to the simulated clock: the serve loop calls
    {!Scrape.tick} as virtual time advances, and the scraper appends one
    snapshot row per elapsed interval boundary.  Boundary times are the
    deterministic sequence [interval, 2*interval, ...], so the scraped
    series is byte-identical whenever the underlying run is. *)
module Scrape : sig
  type registry := t
  type t

  (** [create ?interval reg] (default interval [0.05] simulated seconds).
      Non-positive or non-finite intervals raise [Invalid_argument]. *)
  val create : ?interval:float -> registry -> t

  (** Snapshot every interval boundary [<= now] not yet scraped. *)
  val tick : t -> now:float -> unit

  (** Unconditionally snapshot at [now] (the final partial window). *)
  val force : t -> now:float -> unit

  val rows : t -> (float * sample list) list

  (** Long-format CSV: [t_s,metric,value], one row per (window, sample). *)
  val to_csv : t -> string

  (** One JSON object per (window, sample):
      [{"t":..,"metric":..,"labels":{..},"value":..}]. *)
  val to_jsonl : t -> string
end
