(** Streaming call-graph maintenance over a sliding time window.

    The controller cannot afford the offline pipeline's unbounded trace
    store: it keeps only the last [window_us] (plus a small slack so a
    graph requested just before eviction still has its data) and rebuilds
    the call graph of §4.1 from that window on demand.  Because the
    resource stream carries cumulative per-container counters, the
    windowed graph equals the graph an unbounded store would produce over
    the same window ({!Quilt_tracing.Trace.evict_before}). *)

type t

val create : Quilt_platform.Engine.t -> workflow:Quilt_apps.Workflow.t -> window_us:float -> t
(** A window of [window_us] of virtual time; a quarter of it again is kept
    as slack. *)

val start_of : t -> float
(** The current window's left edge, [max (now − window) floor] — also the
    [since] an alternative profile source (the live profiler of
    [Quilt_obs]) should fold spans from. *)

val advance : t -> unit
(** Evicts spans and samples older than [now − window·(1+slack)] from the
    engine's store.  Call once per controller tick. *)

val set_floor : t -> float -> unit
(** Graphs will not look before this time — the controller raises the
    floor after a redeploy so pre-switch behaviour cannot re-trigger
    drift against the post-switch baseline. *)

val graph : t -> (Quilt_dag.Callgraph.t, string) result
(** The call graph over [max (now − window) floor, now]: windowed span
    counting, statically-known zero-weight edges, and the developers'
    opt-in bits — the same construction as {!Quilt.profile}, minus the
    dedicated profiling run. *)

val invocations_in_window : t -> int
(** Client→entry spans inside the current window (the N the graph would
    be built with); 0 when the window is empty. *)
