(** Live profiler: folds completed spans back into the §3 profile shapes.

    The ground-truth path ({!Quilt_core.Quilt.profile}) runs a dedicated
    profiling simulation with the profiler token on.  The live profiler
    instead reconstructs the same artifacts — a {!Quilt_tracing.Trace}
    store and from it a {!Quilt_dag.Callgraph} — from the span stream an
    attached {!Recorder} observed on production traffic:

    - every span becomes a call-edge observation (caller → fn, sync/async);
    - per-(container, function) cumulative CPU/invocation/peak-memory
      series are resynthesized from the spans' modeled demand, exactly the
      shape the §8 monitor cells emit, so
      {!Quilt_tracing.Builder.build} aggregates them identically;
    - N is the number of client-ingress spans of the entry.

    Under uniform 1/N head sampling, edge weights and N scale together, so
    α, call rates and the per-invocation resources — everything the
    decision consumes — are unbiased; multiply counts by
    {!Recorder.sample_period} when absolute rates are needed. *)

val callgraph :
  ?since:float ->
  ?code_edges:(string * string * Quilt_dag.Callgraph.call_kind) list ->
  entry:string ->
  Recorder.t ->
  (Quilt_dag.Callgraph.t, string) result
(** [Builder.build] over a span + resource store synthesized from the
    retained spans (completion time [>= since]), plus the statically-known
    [code_edges] at weight 0 (Figure 3's dashed arrows).  [Error] when the
    window holds no sampled invocation of [entry]. *)

val invocations : ?since:float -> entry:string -> Recorder.t -> int
(** Sampled client invocations of [entry] in the window (the controller's
    min-invocations gate; multiply by the sample period for an unbiased
    traffic estimate). *)

type fn_profile = {
  fp_fn : string;
  fp_calls : int;  (** Sampled invocations of this function. *)
  fp_cpu_ms : float;  (** Mean modeled CPU per invocation. *)
  fp_mem_mb : float;  (** Peak modeled per-invocation footprint. *)
  fp_queue_ms : float;  (** Mean scheduling delay (remote spans). *)
  fp_fail : int;
}

val profiles : ?since:float -> Recorder.t -> fn_profile list
(** Per-function fold of the retained spans, sorted by name. *)

val edge_counts : ?since:float -> Recorder.t -> ((string option * string) * int) list
(** Observed caller→callee frequencies, sorted; the client ingress appears
    as [None]. *)
