(** Node-utilization rebalancer: the placement arm of the control plane,
    glue between the engine and the pure {!Loop}, keyed by
    (service, node).

    The {!Controller} reconsiders the {e merge}; this loop reconsiders the
    {e placement}.  Each tick reads the per-node reserved capacity; when one
    node runs hot (above 75% of its vCPUs reserved) while another has slack
    (below 55%), it re-homes the hot node's
    cheapest deployment ({!Quilt_platform.Engine.reassign}) and rolls it
    over: the replacement cold-starts on the new node and the route flips
    when it is ready.  The same canary as a re-merge judges the move, and a
    regression moves the deployment back and holds the pair down.
    Superseded versions are decommissioned once their service no longer
    routes to them.  No-op on a flat engine. *)

val tick_us : float
(** Period of the tick loop. *)

val loop_config : Loop.config
(** The loop's timing: a hotspot acts at once, a refused candidate does not
    delay the next look, and a migration is judged one evaluation window
    after its warm-up. *)

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

val create : Quilt_platform.Engine.t -> t

val start : t -> until:float -> unit
(** Installs the completion-stream hook and schedules the tick loop up to
    the given absolute time (like {!Controller.start}). *)

val tick : t -> unit
(** One decision step, for tests driving the loop manually. *)

val events : t -> event list
val summary : t -> summary
