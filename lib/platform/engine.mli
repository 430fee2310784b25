(** Discrete-event serverless platform simulator.

    Models the Figure-1 invocation path (gateway, controller, workers) over
    deployments of three kinds:

    - {b Plain}: one function per container, the status-quo baseline; every
      invocation of another function is remote.
    - {b Merged}: a Quilt-merged subgraph; member-internal calls run
      in-process (nanoseconds), optionally guarded by §5.6 per-request α
      counters that overflow to remote; cut edges stay remote.
    - {b Container_merge}: the CM baseline of §7.2 — every member executes
      in the same container but as a separate process behind an internal
      API gateway, paying an in-container hop and a per-process memory
      footprint.

    Containers are processor-sharing CPU servers (capacity = vCPU limit, at
    most one core per task) with continuously-accounted memory; exceeding
    the memory limit OOM-kills the container and fails its in-flight
    requests, and CPU over-subscription manifests as throttling.  Cold
    starts charge image pull (size-dependent), boot, and — only for
    binaries whose HTTP stack was not delayed — the shared-library load.
    Idle containers lose their specialization and pay to regain it, which
    reproduces Fission's counter-intuitive latency-vs-load curve (§7.3.2).

    Time is float µs.  All randomness comes from the seed, so runs are
    reproducible. *)

type mode =
  | Plain
  | Merged of {
      members : string list;
      guards : ((string * string) * int) list;
          (** §5.6 conditional invocations: for [((caller, callee), α)],
              the first α calls per request from [caller] to [callee] run
              in-process and later ones go remote.  The first entry for a
              pair wins; pairs that are not both members are ignored, and
              every other member edge is always local. *)
    }
  | Container_merge of { members : string list; member_base_mem : string -> float }

type spec = {
  service : string;  (** Routable handle; also the deployment name. *)
  vcpus : float;
  mem_limit_mb : float;
  base_mem_mb : float;  (** Resident base (runtime + binary). *)
  image_mb : float;  (** For the cold-start pull. *)
  max_scale : int;
  eager_http : bool;  (** Pays {!Params.t.http_stack_load_us} on cold start. *)
  mode : mode;
}

type t

val create : ?seed:int -> ?params:Params.t -> registry:Calltree.registry -> unit -> t
(** Events run on a {!Sched} timer wheel with an allocation-free hot path;
    equal seeds give bit-identical simulations. *)

val deploy : t -> spec -> unit
(** Registers (or replaces — Quilt's function-update path, §5.5) a
    deployment and routes its service name to it.  Replacement is
    immediate: the old pool is discarded, so the next request cold-starts.
    Use {!deploy_rolling} for the paper's seamless switch. *)

val deploy_rolling : t -> spec -> unit
(** §5.5: "while the merged function's container is being deployed, the
    platform continues to run the previous functions; once the new
    container is deployed, the runtime seamlessly switches".  Starts the
    new version in the background (one container is pre-warmed); the route
    flips to it the moment that container is ready; the old version keeps
    serving new requests until then and finishes its in-flight work.  Falls
    back to {!deploy} when the service is not yet deployed. *)

val set_profiling : t -> bool -> unit
(** The one-bit profiler-enabled token (§3).  While enabled, the engine
    also emits spans for member-internal (in-process and CM) calls and
    per-member resource series from the merged binary's §8 billing
    instrumentation, so windowed call graphs stay buildable after a
    merge has hidden the member functions from the ingress. *)

val add_completion_hook : t -> (entry:string -> latency_us:float -> ok:bool -> unit) -> unit
(** Registers an observer fired on every client-visible completion (after
    the response leg), in addition to the per-request [on_done].  The
    online controller uses this as its latency/failure stream. *)

val tracing : t -> Quilt_tracing.Trace.store

val now : t -> float

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t delay_us thunk]. *)

val submit :
  t -> entry:string -> req:string -> on_done:(latency_us:float -> ok:bool -> unit) -> unit
(** Injects a client request now; [on_done] fires when the response reaches
    the client (or the workflow fails). *)

val run_until : t -> float -> unit
(** Processes events up to the given absolute time. *)

val drain : t -> unit
(** Processes events until the queue is empty. *)

type counters = {
  cold_starts : int;
  oom_kills : int;
  completed : int;
  failed : int;
  remote_invocations : int;
  local_invocations : int;
  crash_kills : int;  (** Containers torn down by {!kill_container}. *)
  net_drops : int;  (** Remote hops dropped by the network fault. *)
  hop_timeouts : int;  (** Remote hops failed by the router's timeout. *)
}

val counters : t -> counters

(** {1 Scheduler statistics} *)

val events_processed : t -> int
(** Events dispatched by this engine's scheduler so far. *)

val peak_queue_depth : t -> int
(** High-water mark of this engine's pending-event queue. *)

val global_stats : unit -> int * int
(** [(events_processed, peak_queue_depth)] aggregated across every engine
    in the process (synced at each [run_until]/[drain] exit) — scenario
    runners create engines internally, so the CLI's [--engine-stats]
    reads the totals here. *)

val reset_global_stats : unit -> unit

(** {1 Observability hook points}

    [Quilt_obs.Recorder] drives these.  The sink observes: it never
    schedules events, mutates engine state, or draws from the engine RNG —
    so installing (or removing) one cannot perturb the simulation, only its
    wall-clock cost.  With no sink installed every hook is a no-op and the
    hot path allocates nothing extra. *)

type span_sink = {
  sk_sample : int -> bool;
      (** Head-sampling verdict for a fresh root request id, consulted once
          per {!submit}; the verdict sticks for the whole call chain
          (children of a traced request are traced, children of an untraced
          one are not). *)
  sk_task :
    rid:int ->
    fn:string ->
    caller:string option ->
    cid:int ->
    node:int ->
    t_send:float ->
    t_enq:float ->
    t_start:float ->
    t_end:float ->
    cpu_us:float ->
    mem_mb:float ->
    async:bool ->
    local:bool ->
    ok:bool ->
    unit;
      (** One completed invocation of a traced request. [rid] is the root
          request id shared by every span of the chain; [caller] is [None]
          at the client ingress.  Remote tasks ([local = false]) report
          [t_send] (caller issued the hop) ≤ [t_enq] (controller received
          it) ≤ [t_start] (handler began) ≤ [t_end], so queueing and hop
          legs are recoverable; in-process and CM member calls
          ([local = true]) collapse the first three.  [cpu_us]/[mem_mb] are
          the modeled per-invocation demand — the same series the §8
          monitor cells feed — so live-profiler reconstructions stay
          comparable with ground truth. *)
}

val set_span_sink : t -> span_sink option -> unit
(** Installs (or clears) the span sink.  Sinks do not survive engine
    replacement; attach before traffic. *)

(** {1 Fault-injection hook points}

    The deterministic fault injector ([Quilt_fault.Plan]) drives these.
    All of them default to "no fault"; none of them draws from the
    engine's own RNG, so the injector's seed fully determines behaviour. *)

type net_verdict =
  | Net_ok
  | Net_delay of float  (** Extra one-way latency (µs) on the request leg. *)
  | Net_drop  (** The request leg is lost. *)

val set_network_fault :
  t -> (caller:string option -> callee:string -> net_verdict) option -> unit
(** Consulted on every remote hop (including the client→gateway ingress,
    where [caller] is [None]).  A dropped internal hop fails the caller
    after the hop timeout when one is armed, and is lost for good
    otherwise; a dropped ingress hop fails the client request so load
    generators keep total accounting. *)

val set_hop_timeout : t -> float option -> unit
(** Router-level per-hop timeout: a remote invocation that has not
    completed within the budget fails at the caller, while the callee's
    orphaned execution keeps burning resources (the wasted work a retry
    then replays). *)

val set_cpu_fault : t -> (string -> float) option -> unit
(** Per-service CPU degradation factor in (0,1] (noisy neighbour, thermal
    throttling).  In-flight segments are settled at the old rate before
    the new factor takes effect. *)

val set_cold_pull_factor : t -> float -> unit
(** Image-cache flush: multiplies the image-pull component of every cold
    start ([1.0] = healthy cache). *)

val container_ids : t -> fn:string -> int list
(** Live container ids of the deployment [fn] routes to, sorted. *)

val kill_container : t -> fn:string -> cid:int -> bool
(** Crash-kills one container: in-flight requests fail (exactly once, like
    the OOM path), the pool shrinks, queued work re-evaluates (cold-starting
    a replacement if needed).  False if the container is unknown or dead. *)

val kill_all_containers : t -> fn:string -> int
(** Kills every live container of the routed deployment; returns how many. *)

val mem_spike : t -> fn:string -> mb:float -> duration_us:float -> int * int
(** Transient memory pressure on every live, ready container of the routed
    deployment.  Containers pushed past their limit OOM-kill; survivors
    release the pressure after [duration_us].  Returns
    [(containers_spiked, oom_killed)]. *)

val pool_size : t -> string -> int
(** Live containers of a deployment. *)

val peak_pool_size : t -> string -> int

val total_base_mem_mb : t -> float
(** Σ of resident base memory across all live containers — the
    resource-efficiency metric of Experiment 2. *)

(** {1 Cluster topology (quilt_place)}

    By default the engine models the seed's flat world: one implicit node,
    every remote hop priced at the single [Params.rtt_us], containers
    placed wherever a pod frees first.  Installing a
    {!Quilt_place.Topology.Cluster} activates the node model:

    - every container is pinned to its deployment's node and reserves the
      spec's vCPU/memory limits there; the autoscaler refuses to scale a
      deployment past its node's capacity (requests stay queued).  A
      deployment's first container is always admitted — placement is
      admission, so a neighbour's scale-ups cannot starve a service of
      its one guaranteed pod;
    - internal hops are priced by topology distance (same-node / same-rack
      / cross-rack) instead of the flat RTT — client ingress keeps the
      testbed RTT, since the client is outside the cluster;
    - each node keeps an image cache: the first cold start of an image on
      a node pays the registry pull, subsequent ones skip it;
    - a node is a failure domain ({!kill_node}).

    Installing {!Quilt_place.Topology.Flat} (or never calling
    {!set_topology}) keeps every seed code path — pinned bit-identical by
    the flat-parity tests in [test_engine.ml]. *)

val set_topology :
  ?assign:(string * int) list -> t -> Quilt_place.Topology.t -> unit
(** Installs the cluster and the service→node placement.  Call before
    traffic: existing containers are not retroactively charged to nodes.
    Services missing from [assign] are auto-placed first-fit at first use.
    Raises [Invalid_argument] on an out-of-range node id. *)

val topology : t -> Quilt_place.Topology.t

val node_of_service : t -> string -> int option
(** Node hosting the deployment the service routes to; [None] when flat. *)

val rack_of_service : t -> string -> int option

val reassign : t -> service:string -> node:int -> bool
(** Re-homes a service: future containers (e.g. the prewarmed pod of a
    {!deploy_rolling}) start on the new node; running containers stay put
    until they die.
    False when flat or the node id is out of range. *)

type node_load = {
  nl_node : Quilt_place.Topology.node;
  nl_used_vcpus : float;
  nl_used_mem_mb : float;
  nl_containers : int;
}

val node_loads : t -> node_load array
(** Per-node reserved capacity right now; [[||]] when flat. *)

type hop_counters = {
  hops_same_node : int;
  hops_same_rack : int;
  hops_cross_rack : int;
  image_cache_hits : int;
  capacity_denials : int;  (** Scale-ups refused because the node was full. *)
}

val topo_counters : t -> hop_counters
(** Cumulative hop-distance classification of every internal remote
    invocation, plus image-cache and capacity-denial counts. *)

val kill_node : t -> node:int -> int
(** Kills every container on the node (each counted as a crash kill, each
    in-flight request failed exactly once) and clears the node's image
    cache — the machine rebooted.  The node's capacity is immediately
    reusable; replacements cold-start with a full re-pull.  Returns the
    number of containers killed; 0 when flat or out of range. *)
