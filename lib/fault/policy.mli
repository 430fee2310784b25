(** Client-side reliability policies: the retry/hedging gateway.

    Sits between the load generator and {!Quilt_platform.Engine.submit}
    (via {!Quilt_platform.Loadgen.run_open_loop}'s [via] hook) and decides,
    per request, whether to retry, hedge, or give up.

    The semantics matter more under merging than without it: a retry
    against a merged entry replays the {e entire} merged chain — members
    that already succeeded run again — so every retried request bills the
    whole group's work a second time.  The gateway measures that as
    [wasted_work_us] (latency of every attempt whose result the client
    never saw) and [replayed_chains]; the blast-radius metrics in
    {!Quilt_cluster.Metrics} predict the same quantity analytically. *)

type semantics =
  | At_most_once
      (** Never re-execute: no retries, no hedges.  Failures surface
          immediately; duplicated side effects are impossible. *)
  | At_least_once
      (** Failed (or timed-out) attempts may be re-submitted; the workflow
          must tolerate duplicate execution. *)

type t = {
  semantics : semantics;
  max_attempts : int;  (** Total attempts per request, first included. *)
  attempt_timeout_us : float option;
      (** Per-attempt client timeout; the abandoned attempt keeps burning
          backend resources (counted as wasted work when it completes). *)
  backoff_base_us : float;
  backoff_cap_us : float;  (** Capped exponential: min(cap, base·2ⁿ⁻¹). *)
  backoff_jitter : float;  (** ± fraction of the backoff, seeded. *)
  hedge_after_us : float option;
      (** Launch a duplicate attempt if the first has not completed within
          this budget; first success wins, the loser is wasted work. *)
  retry_budget : float;
      (** Token-bucket refill per offered request (e.g. 0.2 ⇒ at most ~20%
          of traffic may be retries in steady state). *)
  retry_burst : float;  (** Bucket capacity. *)
}

val none : t
(** At-most-once, single attempt, no timeout — the transparent gateway. *)

val default_retry : t
(** At-least-once: 3 attempts, 2 s attempt timeout, 10 ms base backoff
    capped at 500 ms with ±50% jitter, 0.2 retry budget. *)

val hedged : t
(** {!default_retry} plus a 100 ms hedge. *)

type stats = {
  offered : int;
  attempts : int;
  retries : int;
  hedges : int;
  timeouts : int;  (** Attempts abandoned by the per-attempt timeout. *)
  budget_denied : int;  (** Retries suppressed by an empty token bucket. *)
  recovered : int;  (** Requests delivered OK on attempt ≥ 2. *)
  delivered_ok : int;
  delivered_fail : int;
  replayed_chains : int;
      (** Extra whole-workflow executions (retries + hedges) — each one
          replays the full merged chain. *)
  wasted_work_us : float;
      (** Σ latency of attempts whose result was never delivered. *)
}

type gateway

val create : ?seed:int -> Quilt_platform.Engine.t -> t -> gateway
(** [seed] (default 0) feeds the backoff-jitter RNG only. *)

val submit :
  gateway ->
  entry:string ->
  req:string ->
  on_done:(latency_us:float -> ok:bool -> unit) ->
  unit
(** Calls [on_done] exactly once, with the end-to-end latency (backoff
    included) of the delivered attempt. *)

val stats : gateway -> stats
