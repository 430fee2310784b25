(** Labeled metrics registry — counters, gauges and histograms.

    The Prometheus-shaped replacement for the ad-hoc stat plumbing the CLI
    and benches used to hand-roll per command: every arm of a run folds its
    engine counters, load-generator results and recorder state into one
    registry, and a single {!snapshot} serializes everything.  Instruments
    are identified by (name, labels); registering the same identity twice
    returns the same instrument (so accumulation composes), registering it
    with a different kind raises [Invalid_argument].

    Histograms reuse {!Quilt_util.Histogram} (the HDR-style log-linear
    buckets every latency measurement in this repo already uses); the
    snapshot exports their non-empty buckets via
    {!Quilt_util.Histogram.iter_buckets}. *)

type t

val create : unit -> t

type counter
type gauge
type histogram

val counter : t -> ?labels:(string * string) list -> string -> counter
val inc : counter -> int -> unit
val counter_value : counter -> int

val gauge : t -> ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : t -> ?labels:(string * string) list -> string -> histogram
val observe : histogram -> float -> unit

val hist : histogram -> Quilt_util.Histogram.t
(** The backing histogram, for bulk accumulation
    ([Histogram.merge_into ~dst:(hist h) src]). *)

(** {1 Bridges}

    One-call folds of the existing result shapes into a registry. *)

val record_engine : t -> ?labels:(string * string) list -> Quilt_platform.Engine.t -> unit
(** Engine counters ([engine_*]) and scheduler stats ([engine_events],
    [engine_peak_queue_depth]). *)

val record_result : t -> ?labels:(string * string) list -> Quilt_platform.Loadgen.result -> unit
(** Offered/success/failure counters, throughput gauge, and the latency
    distribution merged into the [latency_us] histogram. *)

val record_recorder : t -> ?labels:(string * string) list -> Recorder.t -> unit
(** Recorder ingest stats ([obs_spans_recorded], [obs_spans_dropped],
    [obs_roots_seen], [obs_roots_sampled]) plus per-span queue-time and
    CPU histograms folded from the retained spans. *)

(** {1 Snapshot} *)

val snapshot : t -> Quilt_util.Json.t
(** Deterministic (registration-ordered) JSON:
    [{"counters": [{name; labels; value}...],
      "gauges": [...],
      "histograms": [{name; labels; count; mean; p50; p99; max;
                      buckets: [[lo, hi, count]...]}...]}]. *)
