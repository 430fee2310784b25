(** Canned adaptive scenarios: a live simulation with a phased workload,
    optionally supervised by the online {!Controller}.

    Three scenarios, each runnable with or without the controller so the
    benchmark can show what adaptation buys (or prevents):

    - ["path-shift"]: the {!Quilt_apps.Special.routed} workflow under a
      request mix that flips from chain A to chain B mid-run.  The stale
      merge keeps paying a remote hop on the hot path; the controller
      re-merges onto the new hot path and the canary passes.
    - ["steady"]: the same workflow under an unchanging mix — the
      controller must keep its hands still (Keep events only).
    - ["regress"]: the {!Quilt_apps.Special.fan_out} workflow whose
      fan-out degree jumps mid-run, supervised by a controller configured
      with an {e adversarial} cost model (guards stripped, memory
      overhead under-estimated).  The triggered re-merge OOM-loops, the
      canary catches the failure spike, and the controller rolls back to
      the previous plan and holds the bad grouping down.
    - ["crashy"]: path-shift's drift script plus a deterministic
      {!Quilt_fault.Plan} crash storm on the re-merged entry late in the
      run — the fault path to rollback: the failure storm must trip the
      standing SLO watchdog (or the canary, if it lands mid-judgement). *)

type bucket = { b_t_s : float; b_p50_ms : float; b_p99_ms : float; b_n : int; b_fails : int }
(** One latency-timeline bucket ([b_t_s] is the bucket start, virtual
    seconds). *)

type outcome = {
  o_scenario : string;
  o_with_controller : bool;
  o_phased : Quilt_platform.Loadgen.phased_result;
  o_buckets : bucket list;
  o_events : Controller.event list;  (** Empty without the controller. *)
  o_summary : Controller.summary option;
  o_initial_groups : string list list;  (** Multi-member groups at start. *)
  o_final_groups : string list list;  (** … and after the run. *)
}

val names : string list

val run :
  ?smoke:bool ->
  ?seed:int ->
  ?obs_sample:int ->
  with_controller:bool ->
  string ->
  (outcome, string) result
(** [smoke] shrinks every phase and the offline profile to a few virtual
    seconds (single-digit wall seconds).  [seed] (default 0) perturbs the
    engine and workload RNG streams for reproducible-but-different runs.
    [obs_sample] switches the run to observability mode: a span recorder
    with that head-sampling period is attached, the controller (if any)
    re-decides from the live profiler's reconstructed windows, and the
    engine's own profiler — with its per-hop latency overhead — stays off.
    [Error] for unknown scenario names or when the initial offline
    optimization fails. *)

val post_shift_phase : string -> string
(** [post_shift_phase scenario] names the phase used for the post-shift
    comparison ("b-late" for the routed scenarios, "heavy" for regress,
    "steady-2" for steady). *)

val outcome_json : outcome -> Quilt_util.Json.t

val print_outcome : outcome -> unit
(** Human-readable per-phase table plus the controller's event log. *)
