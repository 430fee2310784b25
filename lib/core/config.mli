(** Quilt configuration: the provider's container limits and the knobs of
    the optimizer. *)

type guard_policy =
  | Never  (** All merged edges unconditional (trust the profile). *)
  | Data_dependent
      (** Guard edges whose profiled α exceeds 1 — loops and other
          data-dependent fan-out (§5.6). *)

type t = {
  vcpus : float;  (** Container CPU limit. *)
  mem_limit_mb : float;  (** Container memory limit. *)
  max_scale : int;  (** Containers per deployment (Fission's Max Scale). *)
  cpu_budget_ms : float;
      (** Per-request CPU budget factor: the decision limit is
          C = vcpus × cpu_budget_ms (vCPU·ms per workflow invocation). *)
  mem_overhead_mb : float;
      (** Reserved for runtime + binary; M = mem_limit − overhead. *)
  guard_policy : guard_policy;
  profile_duration_us : float;  (** Length of the profiling window. *)
  profile_connections : int;  (** Closed-loop load used while profiling. *)
  seed : int;
  reliability_lambda : float;
      (** Weight of the blast-radius penalty
          ({!Quilt_cluster.Metrics.expected_replay_work}) in the merge
          decision.  0 (the default) keeps the paper's pure
          communication-cost objective; > 0 makes the optimizer compare
          candidate groupings — including the unmerged baseline — by
          [cost + λ × expected replay work], trading some cut-cost savings
          for smaller fault domains. *)
  domains : int;
      (** Unused (default 1): the merge decision always runs sequentially
          in the calling domain.  The field remains only because the
          repository benchmark still sets it; it goes with the next change
          to that benchmark. *)
}

val default : t
(** 2 vCPU / 128 MB / max-scale 10 — Experiment 1's container shape. *)

val limits : t -> Quilt_cluster.Types.limits
