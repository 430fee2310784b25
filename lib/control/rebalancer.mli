(** Node-utilization rebalancer: the placement arm of the control plane.

    The {!Controller} watches the workload and reconsiders the {e merge};
    this loop watches the cluster and reconsiders the {e placement}.  Each
    tick it reads the engine's per-node reserved capacity; when one node
    runs hot while another has slack, it re-homes the cheapest deployment
    of the hot node ({!Quilt_platform.Engine.reassign}) and rolls it over
    through the existing rolling-redeploy path — the prewarmed replacement
    cold-starts on the new node and the route flips when it is ready, so
    the migration is invisible to clients except for topology effects.

    Every migration is judged by the same canary machinery that guards
    re-merges: the pre-migration latency window is compared against the
    post-migration one, and a regression moves the deployment back and
    holds the (service, node) pair down so the loop does not ping-pong.
    After the verdict the superseded version is decommissioned, releasing
    its reservation on the old node.  No-op on a flat engine. *)

type config = {
  tick_us : float;
  window_us : float;  (** Pre/post stats window fed to the canary. *)
  hot_threshold : float;
      (** A node is a hotspot above this fraction of reserved vCPUs. *)
  slack_threshold : float;
      (** A migration target must sit below this fraction. *)
  cooldown_us : float;  (** Minimum spacing between migrations. *)
  canary : Canary.config;
  warmup_us : float;  (** Post-migration warmup before judging. *)
  eval_us : float;  (** Judgement window after warmup. *)
}

val default_config : config

type kind =
  | Balanced  (** No hotspot this tick. *)
  | Migrated  (** A deployment was re-homed; canary running. *)
  | Migration_passed
  | Migration_reverted
  | Held  (** Candidate pair previously reverted; refused. *)
  | Skipped  (** Hotspot seen but no viable candidate/target. *)

type event = { ev_ts : float; ev_kind : kind; ev_detail : string }

type summary = {
  s_ticks : int;
  s_balanced : int;
  s_migrations : int;
  s_passes : int;
  s_reverts : int;
  s_holds : int;
  s_skips : int;
}

val kind_name : kind -> string

type t

val create : Quilt_platform.Engine.t -> ?cfg:config -> unit -> t

val start : t -> until:float -> unit
(** Installs the completion-stream hook and schedules the tick loop up to
    the given absolute time (like {!Controller.start}). *)

val tick : t -> unit
(** One decision step, for tests driving the loop manually. *)

val events : t -> event list
val summary : t -> summary
