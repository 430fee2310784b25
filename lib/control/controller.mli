(** The closed-loop controller (§1.1's "monitors its merged functions and
    reconsiders the merge", run online): glue between the engine and the
    pure {!Loop}, keyed by plan {!fingerprint}.

    {!start} registers a completion hook (the latency/failure stream) and
    schedules periodic ticks on the engine's event queue.  Each tick
    advances the sliding trace window and feeds {!Loop.step} one
    observation: the canary verdict while a switch is in flight, else a
    watchdog trip, else the windowed call graph's drift against the
    deployed plan's graph.  It applies the actions in return: re-run the
    solver on the window graph, redeploy via rolling update, roll back,
    raise the window floor, log an {!event}.

    Fixed settings: drift is {!Quilt_dag.Drift.detect} at its default 0.3
    relative threshold, {!hysteresis} consecutive drifted windows propose a
    re-decision, and the canary judges with {!Canary}'s constants. *)

type config = {
  tick_us : float;  (** Controller period (default 2 s). *)
  window_us : float;  (** Sliding profile window (default 8 s). *)
  cooldown_us : float;  (** Quiet period after any action (default 10 s). *)
  min_invocations : int;
      (** Windows with fewer entry invocations are skipped (default 40). *)
  canary_warmup_us : float;
      (** Post-switch samples ignored while the new version warms up —
          long enough to cover the route flip and the new pool's scale-up
          (default 5 s). *)
  canary_eval_us : float;
      (** Judged this long after the warm-up ends (default 6 s). *)
}

val default_config : config

val hysteresis : int
(** Consecutive drifted windows required before a re-decision: 2. *)

type kind =
  | Kept  (** Window evaluated, no drift. *)
  | Suspected of int  (** Drift streak below hysteresis. *)
  | Remerged  (** New plan deployed, canary started. *)
  | Rebaselined
      (** Drift triggered but the solver kept the same grouping: the
          window graph becomes the new comparison baseline, nothing is
          redeployed. *)
  | Held  (** The solver proposed a grouping the canary already rolled
          back; observation rebaselined, no redeploy. *)
  | Remerge_failed  (** No feasible grouping (or re-optimization error). *)
  | Canary_passed
  | Canary_rolled_back
  | Watchdog_rolled_back
      (** The standing SLO watchdog reverted the last switch: the
          stable-state failure rate blew past the canary's tolerance under
          a workload the canary window never saw. *)
  | Skipped  (** Window empty or too few invocations. *)

type event = { ev_ts : float; ev_kind : kind; ev_detail : string }

type summary = {
  s_ticks : int;
  s_keeps : int;
  s_suspects : int;
  s_remerges : int;
  s_rebaselines : int;
  s_holds : int;
  s_failures : int;
  s_canary_passes : int;
  s_rollbacks : int;
  s_watchdogs : int;
  s_skipped : int;
}

val kind_name : kind -> string

type t

val create :
  Quilt_platform.Engine.t ->
  ?cfg:config ->
  ?obs:Quilt_obs.Recorder.t ->
  quilt_cfg:Quilt_core.Config.t ->
  workflows:Quilt_apps.Workflow.t list ->
  plan:Quilt_core.Quilt.t ->
  unit ->
  t
(** [obs] switches the controller to observability mode: window graphs are
    reconstructed by the live profiler ({!Quilt_obs.Profiler}) from the
    recorder's span stream instead of the engine's ground-truth trace
    store, the profiler token (and its per-hop latency overhead) stays
    off, and the min-invocations gate scales sampled counts back up by the
    recorder's sample period.  The caller must
    {!Quilt_obs.Recorder.attach} the recorder to the engine before
    traffic. *)

val start : t -> until:float -> unit
(** Enables profiling, registers the completion hook and schedules the
    first tick.  Ticks self-reschedule only while the engine clock is
    below [until], so {!Quilt_platform.Engine.drain} terminates. *)

val plan : t -> Quilt_core.Quilt.t
(** The currently deployed plan (updated by remerges and rollbacks). *)

val events : t -> event list
(** Chronological. *)

val summary : t -> summary

val fingerprint : Quilt_core.Quilt.t -> string
(** Canonical encoding of a plan's grouping: sorted member lists plus the
    guard budgets of each merged deployment.  Two plans with equal
    fingerprints deploy identical containers. *)

val event_json : event -> Quilt_util.Json.t
(** [{"t_s", "kind", "detail"}], the encoding {!Scenario.outcome_json}
    uses for each logged event. *)
