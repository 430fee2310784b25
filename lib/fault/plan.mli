(** Deterministic fault plans.

    A plan is a seeded script of faults at relative times, armed against a
    live engine.  Every random choice (storm victims, per-hop jitter, drop
    coin flips) draws from the plan's own splitmix64 stream — never from
    the engine's — so the pair (plan, engine seed, workload seed) fully
    determines the simulation: the same plan armed twice produces an
    identical event trace and identical end-of-run statistics.  That
    property is what makes chaos runs regression-testable. *)

type fault =
  | Kill of { fn : string; count : int }
      (** Crash-kill up to [count] random live containers of the deployment
          [fn] routes to. *)
  | Kill_all of { fn : string }  (** Crash-kill every live container. *)
  | Crash_storm of { fn : string; every_us : float; until_us : float; count : int }
      (** Repeated {!Kill} every [every_us] until [until_us] (relative to
          arm time) — a crash-looping deployment. *)
  | Mem_spike of { fn : string; mb : float; duration_us : float }
      (** Transient memory pressure on every ready container; containers
          pushed past their limit OOM-kill, survivors recover after
          [duration_us]. *)
  | Net_delay of {
      src : string;
          (** Caller pattern; ["*"] any, ["client"] the ingress, ["node:N"]
              / ["rack:R"] every service the cluster topology hosts there
              (see {!matches}). *)
      dst : string;  (** Callee pattern; same forms as [src]. *)
      delay_us : float;
      jitter_us : float;  (** Uniform ±jitter added per matching hop. *)
      duration_us : float;
    }
  | Net_drop of { src : string; dst : string; p : float; duration_us : float }
      (** Each matching hop is lost with probability [p].  A dropped
          internal hop fails the caller once the router's hop timeout
          fires (and hangs for good without one); a dropped ingress hop
          fails the client request. *)
  | Cpu_degrade of { fn : string; factor : float; duration_us : float }
      (** Noisy neighbour: the matching deployments run at [factor] of
          their CPU rate (clamped to (0,1]).  Overlapping degradations
          compose multiplicatively. *)
  | Image_cache_flush of { pull_factor : float; duration_us : float }
      (** Cold-start storm fuel: every image pull costs [pull_factor]× until
          the cache warms again. *)
  | Kill_node of { node : int }
      (** A node is a failure domain: crash-kill every container the node
          hosts and clear its image cache ({!Quilt_platform.Engine.kill_node}).
          No-op on a flat engine. *)

type event = { at_us : float;  (** Relative to arm time. *) fault : fault }

type t = { seed : int; events : event list }

val make : seed:int -> event list -> t

val matches : Quilt_platform.Engine.t -> string -> string -> bool
(** [matches engine pat name]: the src/dst pattern semantics of the network
    and CPU faults.  Precedence: exact name (a service literally named
    ["node:1"] is matched by that pattern wherever it runs), then ["*"],
    then ["node:N"] / ["rack:R"] resolved against the engine's cluster
    topology.  ["client"] never matches a location pattern, and on a flat
    engine the location forms match nothing. *)

type armed
(** A plan installed against one engine: holds the fault RNG, the active
    network rules, and the human-readable activation trace. *)

val arm : t -> Quilt_platform.Engine.t -> armed
(** Installs the hook points and schedules every event relative to now.
    Network rules are composed into a single engine hook (delays add, any
    drop wins); CPU degradations compose multiplicatively per function. *)

val trace : armed -> (float * string) list
(** Chronological (absolute µs, description) log of every fault activation
    and recovery — the determinism witness: equal seeds ⇒ equal traces. *)
