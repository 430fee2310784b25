(** Canned live scenarios, as data over one run path: offline optimize,
    fresh platform, deploy one arm, let the rolling deploys settle, arm a
    deterministic {!Quilt_fault.Plan}, drive traffic, and (optionally)
    supervise the quilt arm with the online {!Controller}.

    Two families of scenarios share it.

    {b Adaptive scenarios} ({!names}) drive a phase script, with or without
    the controller, so the benchmark can show what adaptation buys (or
    prevents):

    - ["path-shift"]: the {!Quilt_apps.Special.routed} workflow under a
      request mix that flips from chain A to chain B mid-run.  The stale
      merge keeps paying a remote hop on the hot path; the controller
      re-merges onto the new hot path and the canary passes.
    - ["steady"]: the same workflow under an unchanging mix — the
      controller must keep its hands still (Keep events only).
    - ["regress"] / ["late-regress"]: the {!Quilt_apps.Special.fan_out}
      workflow whose fan-out degree jumps mid-run, supervised by a
      controller configured with an {e adversarial} cost model (guards
      stripped, memory overhead under-estimated).  The triggered re-merge
      OOM-loops; the canary (regress) or the standing SLO watchdog
      (late-regress) catches the failure spike, and the controller rolls
      back to the previous plan and holds the bad grouping down.
    - ["crashy"]: path-shift's drift script plus a crash storm on the
      re-merged entry late in the run — the fault path to rollback: the
      failure storm must trip the standing SLO watchdog (or the canary, if
      it lands mid-judgement).

    {b Chaos cells} ({!chaos_names}) drive a steady open loop through the
    retry/hedging gateway ({!Quilt_fault.Policy}) against each deployment
    arm — per-function baseline, the container-merge baseline, and quilt's
    merged grouping — and measure availability, tail latency, goodput, and
    the gateway's wasted-work bill.  The point is the blast-radius
    contrast: a crash storm on the entry hurts the merged arms more (one
    container hosts more of the chain), while network chaos hurts the
    baseline more (more remote hops exposed to loss). *)

type arm = Baseline | Cm | Quilt_merged

type traffic =
  | Phases of Quilt_platform.Loadgen.phase list
  | Open_loop of { rate_rps : float; duration_us : float }
      (** The profiled mix through the gateway; [duration_us] is measured
          after a 10% warm-up. *)

type spec = {
  sp_workflow : Quilt_apps.Workflow.t;
  sp_profile_gen : Quilt_util.Rng.t -> string;
      (** The mix the offline plan is profiled under. *)
  sp_offline_cfg : Quilt_core.Config.t;
  sp_ctl_quilt_cfg : Quilt_core.Config.t;
      (** What the controller re-optimizes with (possibly adversarial). *)
  sp_ctl_cfg : Controller.config;
  sp_traffic : traffic;
  sp_hop_timeout_us : float option;
  sp_faults : total_us:float -> Quilt_fault.Plan.t;
      (** Given the run's total length (phases, or warm-up plus window). *)
}

val names : string list
(** The adaptive scenarios: path-shift, steady, regress, late-regress,
    crashy. *)

val chaos_names : string list
(** ["crashstorm"; "netchaos"; "coldstorm"; "memspike"; "slowcpu"]. *)

val spec : ?smoke:bool -> ?seed:int -> string -> (spec, string) result
(** [smoke] shrinks the traffic and the offline profile to a few virtual
    seconds; [seed] reaches a chaos cell's fault plan and profile. *)

type bucket = { b_t_s : float; b_p50_ms : float; b_p99_ms : float; b_n : int; b_fails : int }
(** One latency-timeline bucket ([b_t_s] is the bucket start, virtual
    seconds). *)

type outcome = {
  o_scenario : string;
  o_arm : arm;
  o_with_controller : bool;
  o_phased : Quilt_platform.Loadgen.phased_result;
      (** An open loop's result is [overall], with no phases. *)
  o_buckets : bucket list;  (** Phase scripts only. *)
  o_events : Controller.event list;  (** Empty without the controller. *)
  o_summary : Controller.summary option;
  o_initial_groups : string list list;  (** Multi-member groups at start. *)
  o_final_groups : string list list;  (** … and after the run. *)
  o_gateway : (string * Quilt_fault.Policy.stats) option;
      (** Policy name and gateway statistics; open loops only. *)
  o_faults : (float * string) list;  (** The armed plan's activation log. *)
}

val run :
  ?smoke:bool ->
  ?seed:int ->
  ?obs_sample:int ->
  ?arm:arm ->
  ?policy:string ->
  with_controller:bool ->
  string ->
  (outcome, string) result
(** One scenario on one [arm] (default [Quilt_merged]).  [seed] (default 0)
    perturbs the engine, workload, fault-plan and gateway streams for
    reproducible-but-different runs.  [policy] names an open loop's gateway
    policy: ["none"], ["retry"] (the default) or ["hedged"].  A phase
    script runs with the engine profiler on, with or without the
    controller, so the two compare controller behaviour, not
    instrumentation cost.  [obs_sample] switches to observability mode: a
    span recorder with that head-sampling period is attached, the
    controller (if any) re-decides from the live profiler's reconstructed
    windows, and the engine profiler stays off.  [Error] for unknown
    names, a failed offline optimization, or a controller without a quilt
    plan to supervise. *)

val run_matrix :
  ?smoke:bool -> ?seed:int -> ?policy:string -> string list -> (outcome list, string) result
(** Every named scenario × every arm, without the controller, stopping at
    the first [Error]. *)

val post_shift_phase : string -> string
(** [post_shift_phase scenario] names the phase used for the post-shift
    comparison ("b-late" for the routed scenarios, "heavy" for regress,
    "steady-2" for steady). *)

val outcome_json : outcome -> Quilt_util.Json.t

val print_outcome : outcome -> unit
(** Open loops print one matrix row; phase scripts a per-phase table plus
    the controller's event log. *)
