(** Distributed tracing and resource monitoring (§3).

    The paper's stack — nginx ingress with OpenTelemetry, an otel-collector,
    Grafana Tempo for traces, cAdvisor + InfluxDB for container resources —
    reduces to two stores:

    - a {b span store} (Tempo): one span per invocation observed at the
      ingress, carrying caller, callee, call kind and timestamp; and
    - a {b resource store} (InfluxDB): per-container samples of cumulative
      CPU time and peak memory, attributed to a function.

    {!Builder} turns a profiling window into the call graph of §4.1:
    vertices labelled with average CPU per invocation and peak memory
    across all containers of a function; edges weighted with observed
    caller→callee counts; α computed against the workflow invocation
    count N. *)

type call_kind = Sync | Async

type span = {
  ts : float;  (** µs since simulation start. *)
  caller : string option;  (** [None] for client → workflow-entry spans. *)
  callee : string;
  kind : call_kind;
}

type resource_sample = {
  rs_ts : float;
  container : int;
  fn : string;
  cpu_us_cum : float;  (** Cumulative CPU time of the container. *)
  mem_mb : float;  (** Instantaneous resident memory. *)
  invocations_cum : int;  (** Requests completed by the container so far. *)
}

type store

val create : unit -> store

val record_span : store -> span -> unit
val record_resource : store -> resource_sample -> unit

val spans : store -> ?since:float -> unit -> span list
(** Chronological. *)

val count_spans : store -> ?since:float -> (span -> bool) -> int
(** The spans at or after [since] that satisfy the predicate, counted
    without building a list. *)

val resource_samples : store -> fn:string -> resource_sample list

val span_count : store -> int

val evict_before : store -> float -> unit
(** [evict_before st t] drops every span and resource sample older than
    [t], so long-lived simulations (the online control plane's sliding
    window) keep the store bounded.  Because resource samples carry
    {e cumulative} per-container counters, a call graph built over
    [\[t, now\]] after eviction equals the one built over the same window
    from the full store. *)
