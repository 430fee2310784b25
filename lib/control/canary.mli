(** Canary judgement for a freshly switched deployment.

    Every redeploy is an experiment: the controller snapshots the latency
    stream before the switch, lets the new version warm up, and compares
    the post-switch tail and failure rate against the pre-switch window.
    A regression beyond the fixed ratios below reverts the switch. *)

val quantile : float
(** Tail quantile compared: 0.99. *)

val max_fail_delta : float
(** Absolute failure-rate increase tolerated: 0.05. *)

val min_samples : int
(** Below this many post-switch samples the verdict is {!Inconclusive}:
    20. *)

type stats = { n : int; fail_rate : float; tail_us : float }

val stats_of : (float * bool) list -> stats
(** From (latency_us, ok) samples; [tail_us] is over successes only and 0
    when there are none. *)

(** {2 Latency stream}

    The completion samples a supervising loop ({!Controller}) judges its
    switches by. *)

type samples
(** (timestamp, latency_us, ok) per completed request, newest first. *)

val samples : unit -> samples

val prune : samples -> before:float -> unit
(** Drops samples timestamped before [before]. *)

val stats_between : samples -> from_:float -> to_:float -> stats
(** {!stats_of} over the samples timestamped in [[from_, to_]]. *)

val supervise :
  Quilt_platform.Engine.t ->
  ?entry:string ->
  samples ->
  tick_us:float ->
  until:float ->
  (unit -> unit) ->
  unit
(** Records every completed request (only those of [entry], when given)
    into [samples] and runs the tick function every [tick_us] of virtual
    time up to the absolute time [until]; no tick is scheduled past
    [until], so {!Quilt_platform.Engine.drain} terminates. *)

type verdict = Pass | Regress of string | Inconclusive of string

val judge : pre:stats -> post:stats -> verdict
(** Failure-rate spike is checked first (an OOM-looping deployment can
    show a {e lower} tail because only cheap requests survive), then the
    tail ratio.  [Inconclusive] when either side lacks samples. *)
