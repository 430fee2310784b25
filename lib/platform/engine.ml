module Rng = Quilt_util.Rng
module Trace = Quilt_tracing.Trace
module Topology = Quilt_place.Topology

type mode =
  | Plain
  | Merged of { members : string list; guard : caller:string -> callee:string -> int option }
  | Container_merge of { members : string list; member_base_mem : string -> float }

type spec = {
  service : string;
  vcpus : float;
  mem_limit_mb : float;
  base_mem_mb : float;
  image_mb : float;
  max_scale : int;
  eager_http : bool;
  mode : mode;
}

type seg = { mutable remaining : float; big : bool; on_finish : unit -> unit }

type container = {
  cid : int;
  cspec : spec;
  mutable ready : bool;
  mutable dead : bool;
  mutable compute : seg list;
  mutable n_compute : int;  (* = List.length compute, maintained incrementally *)
  mutable last_update : float;
  mutable epoch : int;
  mutable cpu_fn : unit -> unit;  (* preallocated CPU tick, validated by event tag *)
  mutable mem_in_use : float;
  mutable n_tasks : int;
  mutable idle_since : float;
  mutable cpu_used_us : float;
  mutable invocations : int;
  mutable backlog : (unit -> unit) list;  (* tasks waiting for cold start *)
  c_node : int;  (* hosting worker node (0 when the topology is flat) *)
  mutable c_charged : bool;  (* capacity reserved on the node, to release on kill *)
  fail_hooks : (int, unit -> unit) Hashtbl.t;
  (* In-process per-function monitor for merged/CM containers (§8's billing
     instrumentation): cumulative modeled CPU / invocations / peak workspace
     per function executed in this container. *)
  monitors : (string, monitor_cell) Hashtbl.t;
}

and monitor_cell = { mutable m_cpu : float; mutable m_inv : int; mutable m_peak : float }

(* --- Observability hook points (driven by quilt_obs) --- *)

(* The span sink observes; it never schedules events, mutates engine state,
   or draws from the engine RNG — so installing or removing one cannot
   perturb the simulation, only its wall-clock cost. *)
type span_sink = {
  sk_sample : int -> bool;
      (* Head-sampling verdict for a fresh root request id, consulted once
         per [submit]; the verdict sticks for the whole call chain. *)
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
}

(* Per-hop observability context, carried alongside the continuation from
   the moment a traced request (or one of its remote children) is sent
   until its completion record is emitted.  Untraced hops carry [None] —
   the common case — so the disabled path allocates nothing extra. *)
type obs_ctx = {
  o_rid : int;
  o_caller : string option;
  o_async : bool;
  o_send : float;  (* when the caller issued the hop *)
  mutable o_enq : float;  (* when the controller received it *)
  mutable o_start : float;  (* when the handler began executing *)
}

type deployment = {
  mutable dspec : spec;
  mutable pool : container list;
  mutable rr : int;
  mutable peak : int;
  mutable draining : bool;  (* re-entrancy guard for drain_queue *)
  waitq : (Calltree.node * obs_ctx option * (bool -> unit)) Queue.t;
  members_tbl : (string, unit) Hashtbl.t;  (* interned merge-member set *)
  mutable scratch : container array;  (* reused alive-pool buffer for pick_container *)
}

type counters = {
  cold_starts : int;
  oom_kills : int;
  completed : int;
  failed : int;
  remote_invocations : int;
  local_invocations : int;
  crash_kills : int;
  net_drops : int;
  hop_timeouts : int;
}

(* Verdict of the (optional) network-fault hook for one remote hop. *)
type net_verdict = Net_ok | Net_delay of float | Net_drop

(* --- Cluster topology state (None = the seed's flat world) --- *)

(* Per-node runtime accounting.  [ns_images] is the node's image cache:
   the first cold start of an image on a node pays the registry pull, later
   cold starts of the same image on that node skip it (kubelet behaviour).
   A node kill clears the cache — the machine rebooted. *)
type node_state = {
  ns_node : Topology.node;
  mutable ns_used_vcpus : float;
  mutable ns_used_mem_mb : float;
  (* Admission headroom held for assigned services that have not started
     their first container yet (K8s-style requests at schedule time):
     scale-ups may only eat capacity beyond [used + planned]. *)
  mutable ns_planned_vcpus : float;
  mutable ns_planned_mem_mb : float;
  mutable ns_containers : int;
  ns_images : (string, unit) Hashtbl.t;
}

type hop_counters = {
  hops_same_node : int;
  hops_same_rack : int;
  hops_cross_rack : int;
  image_cache_hits : int;
  capacity_denials : int;  (** Scale-ups refused because the node was full. *)
}

type cluster_state = {
  topo : Topology.cluster;
  nstates : node_state array;
  assign : (string, int) Hashtbl.t;  (* deployment base name -> node id *)
  pending : (string, float * float) Hashtbl.t;
      (* base name -> (vcpus, mem) of the planned-but-unstarted first pod *)
  mutable ch_same_node : int;
  mutable ch_same_rack : int;
  mutable ch_cross_rack : int;
  mutable ch_image_hits : int;
  mutable ch_cap_denials : int;
}

type t = {
  rng : Rng.t;
  prm : Params.t;
  registry : Calltree.registry;
  events : (unit -> unit) Sched.t;
  mutable now_ : float;
  deployments : (string, deployment) Hashtbl.t;
  routes : (string, string) Hashtbl.t;
  store : Trace.store;
  mutable profiling : bool;
  mutable c_cold : int;
  mutable c_oom : int;
  mutable c_done : int;
  mutable c_fail : int;
  mutable c_remote : int;
  mutable c_local : int;
  mutable next_cid : int;
  mutable next_tid : int;
  mutable ev_synced : int;  (* pops already folded into the global counters *)
  ctree_cache : (string, (string, Calltree.node) Hashtbl.t) Hashtbl.t;
  mutable completion_hooks : (entry:string -> latency_us:float -> ok:bool -> unit) list;
  (* --- fault-injection hook points (driven by quilt_fault) --- *)
  mutable net_fault : (caller:string option -> callee:string -> net_verdict) option;
  mutable cpu_fault : (string -> float) option;  (* service -> rate factor in (0,1] *)
  mutable cold_pull_factor : float;  (* image-cache flush: >1 slows pulls *)
  mutable hop_timeout_us : float option;  (* per-hop router timeout *)
  mutable c_crash : int;
  mutable c_net_drop : int;
  mutable c_hop_timeout : int;
  (* --- cluster topology (quilt_place); None keeps every seed path --- *)
  mutable cluster : cluster_state option;
  (* --- observability (quilt_obs); None keeps every seed path --- *)
  mutable span_sink : span_sink option;
  mutable next_rid : int;
}

(* Per-request context on the deployment that owns the root task.  The
   guard table only exists for requests that actually hit a guarded edge. *)
type tctx = {
  tid : int;
  t_orid : int;  (* traced root request id; -1 on the untraced fast path *)
  mutable t_failed : bool;
  mutable guard_counts : (string * string, int ref) Hashtbl.t option;
}

let nop () = ()

(* Process-wide throughput counters: scenario runners build their engines
   internally, so the CLI's [--engine-stats] reads the aggregate here.
   Atomics because bench fan-outs drive engines from a Domain pool. *)
let g_events = Atomic.make 0
let g_peak_depth = Atomic.make 0

let reset_global_stats () =
  Atomic.set g_events 0;
  Atomic.set g_peak_depth 0

let global_stats () = (Atomic.get g_events, Atomic.get g_peak_depth)

let sync_stats sim =
  let p = Sched.popped_total sim.events in
  ignore (Atomic.fetch_and_add g_events (p - sim.ev_synced));
  sim.ev_synced <- p;
  let pk = Sched.peak_length sim.events in
  let rec bump () =
    let cur = Atomic.get g_peak_depth in
    if pk > cur && not (Atomic.compare_and_set g_peak_depth cur pk) then bump ()
  in
  bump ()

let create ?(seed = 1) ?(params = Params.default) ~registry () =
  {
    rng = Rng.create seed;
    prm = params;
    registry;
    events = Sched.create ~dummy:nop ();
    now_ = 0.0;
    deployments = Hashtbl.create 32;
    routes = Hashtbl.create 32;
    store = Trace.create ();
    profiling = false;
    c_cold = 0;
    c_oom = 0;
    c_done = 0;
    c_fail = 0;
    c_remote = 0;
    c_local = 0;
    next_cid = 0;
    next_tid = 0;
    ev_synced = 0;
    ctree_cache = Hashtbl.create 16;
    completion_hooks = [];
    net_fault = None;
    cpu_fault = None;
    cold_pull_factor = 1.0;
    hop_timeout_us = None;
    c_crash = 0;
    c_net_drop = 0;
    c_hop_timeout = 0;
    cluster = None;
    span_sink = None;
    next_rid = 0;
  }

let set_span_sink sim s = sim.span_sink <- s

let add_completion_hook sim h = sim.completion_hooks <- h :: sim.completion_hooks

let now sim = sim.now_
let tracing sim = sim.store
let set_profiling sim b = sim.profiling <- b
let events_processed sim = Sched.popped_total sim.events
let peak_queue_depth sim = Sched.peak_length sim.events

let schedule_tag sim delay tag thunk =
  let delay = if delay < 0.0 then 0.0 else delay in
  Sched.schedule sim.events ~time:(sim.now_ +. delay) ~tag thunk

let schedule sim delay thunk = schedule_tag sim delay 0 thunk

let make_deployment spec =
  let members_tbl = Hashtbl.create 8 in
  (match spec.mode with
  | Plain -> ()
  | Merged { members; _ } | Container_merge { members; _ } ->
      List.iter (fun m -> Hashtbl.replace members_tbl m ()) members);
  {
    dspec = spec;
    pool = [];
    rr = 0;
    peak = 0;
    draining = false;
    waitq = Queue.create ();
    members_tbl;
    scratch = [||];
  }

let deploy sim spec =
  Hashtbl.replace sim.deployments spec.service (make_deployment spec);
  Hashtbl.replace sim.routes spec.service spec.service

let mem_deployment sim name = Hashtbl.mem sim.deployments name

let deployment_for sim fn =
  let dname = match Hashtbl.find_opt sim.routes fn with Some d -> d | None -> fn in
  match Hashtbl.find_opt sim.deployments dname with
  | Some d -> d
  | None -> failwith (Printf.sprintf "Engine: no deployment for %s" fn)

(* --- Cluster topology helpers --- *)

(* Rolling versions live under "<service>#vN"; placement is per logical
   service, so node lookups strip the version suffix. *)
let base_service name =
  match String.index_opt name '#' with
  | None -> name
  | Some i -> String.sub name 0 i

(* The node hosting a deployment.  Unassigned services are auto-placed
   first-fit at first use (lowest node with room for one container, else
   the node with the most free vCPUs) and the choice is recorded, so it is
   deterministic and stable for the rest of the run. *)
let node_for_spec cs (spec : spec) =
  let base = base_service spec.service in
  match Hashtbl.find_opt cs.assign base with
  | Some id -> id
  | None ->
      let n = Array.length cs.nstates in
      let fits i =
        let ns = cs.nstates.(i) in
        ns.ns_used_vcpus +. ns.ns_planned_vcpus +. spec.vcpus <= ns.ns_node.Topology.vcpus
        && ns.ns_used_mem_mb +. ns.ns_planned_mem_mb +. spec.mem_limit_mb
           <= ns.ns_node.Topology.mem_mb
      in
      let rec first i = if i >= n then None else if fits i then Some i else first (i + 1) in
      let id =
        match first 0 with
        | Some i -> i
        | None ->
            let best = ref 0 and free = ref neg_infinity in
            for i = 0 to n - 1 do
              let f = cs.nstates.(i).ns_node.Topology.vcpus -. cs.nstates.(i).ns_used_vcpus in
              if f > !free then begin
                free := f;
                best := i
              end
            done;
            !best
      in
      Hashtbl.replace cs.assign base id;
      id

let node_of_dname sim dname =
  match sim.cluster with
  | None -> 0
  | Some cs -> (
      match Hashtbl.find_opt sim.deployments dname with
      | Some dep -> node_for_spec cs dep.dspec
      | None -> (
          match Hashtbl.find_opt cs.assign (base_service dname) with
          | Some id -> id
          | None -> 0))

(* Node of the deployment a function routes to. *)
let node_of_fn sim fn =
  node_of_dname sim
    (match Hashtbl.find_opt sim.routes fn with Some d -> d | None -> fn)

(* Does [dep]'s node have room to reserve one more container?  Planned
   first pods of not-yet-started neighbours count as occupied: a scale-up
   must not eat a slot the placement promised to someone else. *)
let node_has_capacity sim dep =
  match sim.cluster with
  | None -> true
  | Some cs ->
      let ns = cs.nstates.(node_for_spec cs dep.dspec) in
      let spec = dep.dspec in
      ns.ns_used_vcpus +. ns.ns_planned_vcpus +. spec.vcpus <= ns.ns_node.Topology.vcpus
      && ns.ns_used_mem_mb +. ns.ns_planned_mem_mb +. spec.mem_limit_mb
         <= ns.ns_node.Topology.mem_mb

(* Topology-derived RTT for a hop between two functions; None = flat. *)
let hop_rtt_us sim ~caller ~callee =
  match sim.cluster with
  | None -> None
  | Some cs ->
      let u = match caller with Some fn -> node_of_fn sim fn | None -> -1 in
      if u < 0 then None  (* client ingress keeps the flat testbed RTT *)
      else begin
        let v = node_of_fn sim callee in
        (match Topology.dist cs.topo u v with
        | Topology.Same_node -> cs.ch_same_node <- cs.ch_same_node + 1
        | Topology.Same_rack -> cs.ch_same_rack <- cs.ch_same_rack + 1
        | Topology.Cross_rack -> cs.ch_cross_rack <- cs.ch_cross_rack + 1);
        Some (Topology.rtt_us (Topology.Cluster cs.topo) ~default_rtt_us:sim.prm.Params.rtt_us u v)
      end

(* --- Processor-sharing CPU --- *)

(* Queued requests are re-dispatched when capacity frees up.  Capacity
   changes both when tasks complete and when a compute segment finishes
   (the task moves to I/O wait); the hook breaks the definition cycle with
   drain_queue below. *)
let drain_hook : (t -> container -> unit) ref = ref (fun _ _ -> ())

(* Per-segment progress rate under processor sharing.  Long compute bursts
   additionally lose efficiency when the container's demand exceeds its
   quota — CFS throttling (the Experiment 3 phenomenon).  An injected CPU
   fault (noisy neighbour / thermal degradation) scales the whole container
   down by a service-specific factor. *)
let seg_rate sim c n (s : seg) =
  let prm = sim.prm in
  let nf = float_of_int n in
  let base = Float.min 1.0 (c.cspec.vcpus /. nf) in
  (* Mild over-subscription fits within the CFS period; sustained demand
     well past the quota stalls and loses efficiency. *)
  let base =
    if s.big && nf > c.cspec.vcpus +. 1.5 then base *. prm.Params.cfs_throttle_efficiency
    else base
  in
  match sim.cpu_fault with
  | None -> base
  | Some f -> base *. Float.max 1e-3 (Float.min 1.0 (f c.cspec.service))

let settle sim c nowt =
  let n = c.n_compute in
  if n > 0 then begin
    let dt = nowt -. c.last_update in
    if dt > 0.0 then
      List.iter
        (fun s ->
          let rate = seg_rate sim c n s in
          s.remaining <- s.remaining -. (dt *. rate);
          c.cpu_used_us <- c.cpu_used_us +. (dt *. rate))
        c.compute
  end;
  c.last_update <- nowt

(* A container's pending CPU tick is identified by its epoch.  The epoch
   rides in the event's tag and the preallocated [cpu_fn] compares it
   against [Sched.last_tag] at dispatch — no per-reschedule closure. *)
let rec cpu_tick sim c =
  settle sim c sim.now_;
  let finished, running = List.partition (fun s -> s.remaining <= 1e-6) c.compute in
  c.compute <- running;
  c.n_compute <- List.length running;
  reschedule_cpu sim c;
  List.iter (fun s -> s.on_finish ()) finished;
  if finished <> [] then !drain_hook sim c

and reschedule_cpu sim c =
  c.epoch <- c.epoch + 1;
  match c.compute with
  | [] -> ()
  | segs ->
      let n = c.n_compute in
      let dt =
        List.fold_left
          (fun acc s -> Float.min acc (s.remaining /. seg_rate sim c n s))
          infinity segs
      in
      let dt = Float.max 0.0 dt in
      schedule_tag sim dt c.epoch c.cpu_fn

let add_compute sim c us k =
  if c.dead then ()
  else if us <= 0.01 then k ()
  else begin
    settle sim c sim.now_;
    c.compute <- { remaining = us; big = us >= sim.prm.Params.cfs_big_seg_us; on_finish = k } :: c.compute;
    c.n_compute <- c.n_compute + 1;
    reschedule_cpu sim c
  end

(* --- Memory and OOM --- *)

let remove_container dep c = dep.pool <- List.filter (fun c' -> c'.cid <> c.cid) dep.pool

(* Tear a container down and fail its in-flight requests.  Shared by the
   OOM path and the fault injector's crash kills; only the counter differs.
   Each fail hook fires exactly once: hooks are drained before firing, and
   start_task's [done_once] guard makes double completion impossible. *)
let kill_impl sim dep c =
  settle sim c sim.now_;
  (if c.c_charged then
     match sim.cluster with
     | Some cs when c.c_node < Array.length cs.nstates ->
         let ns = cs.nstates.(c.c_node) in
         ns.ns_used_vcpus <- ns.ns_used_vcpus -. c.cspec.vcpus;
         ns.ns_used_mem_mb <- ns.ns_used_mem_mb -. c.cspec.mem_limit_mb;
         ns.ns_containers <- ns.ns_containers - 1;
         c.c_charged <- false
     | _ -> ());
  c.dead <- true;
  c.epoch <- c.epoch + 1;
  c.compute <- [];
  c.n_compute <- 0;
  remove_container dep c;
  let hooks = Hashtbl.fold (fun _ h acc -> h :: acc) c.fail_hooks [] in
  Hashtbl.reset c.fail_hooks;
  List.iter (fun h -> h ()) hooks

let oom_kill sim dep c =
  sim.c_oom <- sim.c_oom + 1;
  kill_impl sim dep c

(* Returns false when the allocation killed the container. *)
let add_mem sim dep c mb =
  if c.dead then false
  else begin
    c.mem_in_use <- c.mem_in_use +. mb;
    if c.mem_in_use > c.cspec.mem_limit_mb then begin
      oom_kill sim dep c;
      false
    end
    else true
  end

let release_mem c mb = if not c.dead then c.mem_in_use <- c.mem_in_use -. mb

(* --- Containers --- *)

let cold_start sim dep =
  sim.c_cold <- sim.c_cold + 1;
  sim.next_cid <- sim.next_cid + 1;
  let spec = dep.dspec in
  (* Reserve node capacity for the container's limits (K8s requests=limits)
     and consult the node's image cache.  The scale-up path gates on
     [node_has_capacity] before calling us; explicit prewarm paths
     (deploy_rolling) may transiently overcommit, like a real rolling
     update does during the surge. *)
  let nid, pull_factor =
    match sim.cluster with
    | None -> (0, sim.cold_pull_factor)
    | Some cs ->
        let nid = node_for_spec cs dep.dspec in
        let ns = cs.nstates.(nid) in
        (* The service's planned first-pod reservation converts to usage. *)
        let base = base_service spec.service in
        (match Hashtbl.find_opt cs.pending base with
        | Some (pv, pm) ->
            Hashtbl.remove cs.pending base;
            ns.ns_planned_vcpus <- Float.max 0.0 (ns.ns_planned_vcpus -. pv);
            ns.ns_planned_mem_mb <- Float.max 0.0 (ns.ns_planned_mem_mb -. pm)
        | None -> ());
        ns.ns_used_vcpus <- ns.ns_used_vcpus +. spec.vcpus;
        ns.ns_used_mem_mb <- ns.ns_used_mem_mb +. spec.mem_limit_mb;
        ns.ns_containers <- ns.ns_containers + 1;
        let pf =
          if not cs.topo.Topology.image_cache then sim.cold_pull_factor
          else begin
            (* Keyed by logical image, not container: a rolling version of
               the same service reuses the layer unless the image changed
               size (a re-merge ships a different binary).  The cache is
               marked at pull start — a concurrent cold start on the same
               node rides the in-flight pull. *)
            let key = Printf.sprintf "%s:%.1f" (base_service spec.service) spec.image_mb in
            if Hashtbl.mem ns.ns_images key then begin
              cs.ch_image_hits <- cs.ch_image_hits + 1;
              0.0
            end
            else begin
              Hashtbl.replace ns.ns_images key ();
              sim.cold_pull_factor
            end
          end
        in
        (nid, pf)
  in
  let c =
    {
      cid = sim.next_cid;
      cspec = spec;
      ready = false;
      dead = false;
      compute = [];
      n_compute = 0;
      last_update = sim.now_;
      epoch = 0;
      cpu_fn = nop;
      mem_in_use = spec.base_mem_mb;
      n_tasks = 0;
      idle_since = sim.now_;
      cpu_used_us = 0.0;
      invocations = 0;
      backlog = [];
      c_node = nid;
      c_charged = Option.is_some sim.cluster;
      fail_hooks = Hashtbl.create 8;
      monitors = Hashtbl.create 8;
    }
  in
  c.cpu_fn <-
    (fun () -> if (not c.dead) && c.epoch = Sched.last_tag sim.events then cpu_tick sim c);
  dep.pool <- c :: dep.pool;
  if List.length dep.pool > dep.peak then dep.peak <- List.length dep.pool;
  let duration =
    (spec.image_mb *. sim.prm.Params.cold_start_pull_us_per_mb *. pull_factor)
    +. sim.prm.Params.cold_start_boot_us
    +. (if spec.eager_http then sim.prm.Params.http_stack_load_us else 0.0)
  in
  schedule sim duration (fun () ->
      if not c.dead then begin
        c.ready <- true;
        c.idle_since <- sim.now_;
        c.last_update <- sim.now_;
        let pending = List.rev c.backlog in
        c.backlog <- [];
        List.iter (fun run -> run ()) pending;
        (* Requests queued at the controller can now be placed. *)
        !drain_hook sim c
      end);
  c

let accepts sim c =
  if c.dead || not c.ready then false
  else if c.n_tasks >= sim.prm.Params.max_tasks_per_container then false
  else begin
    let slots = Float.max 1.0 (c.cspec.vcpus *. sim.prm.Params.utilization_threshold) in
    float_of_int c.n_compute < slots
  end

(* Hot path: the alive pool is copied into a per-deployment scratch array
   that is reused across dispatches, so the round-robin scan allocates
   nothing.  This replaces the seed's List.filter + Array.of_list pair —
   an O(pool) allocation per dispatch that turned request dispatch
   quadratic in pool size under load. *)
let scratch_put dep n c =
  if n >= Array.length dep.scratch then begin
    let na = Array.make (max 8 (2 * (n + 1))) c in
    Array.blit dep.scratch 0 na 0 n;
    dep.scratch <- na
  end;
  dep.scratch.(n) <- c

let pick_container sim dep =
  let rec fill l n =
    match l with
    | [] -> n
    | c :: tl ->
        if c.dead then fill tl n
        else begin
          scratch_put dep n c;
          fill tl (n + 1)
        end
  in
  let n = fill dep.pool 0 in
  if n = 0 then None
  else begin
    (* Round-robin over the pool, Fission-style. *)
    let rec scan i tries =
      if tries >= n then None
      else begin
        let c = dep.scratch.(i mod n) in
        if accepts sim c then Some c else scan (i + 1) (tries + 1)
      end
    in
    let found = scan dep.rr 0 in
    dep.rr <- (dep.rr + 1) mod n;
    found
  end

(* --- Execution --- *)

let call_decision dep tctx ~caller ~callee =
  match dep.dspec.mode with
  | Plain -> `Remote
  | Merged { guard; _ } ->
      if Hashtbl.mem dep.members_tbl callee then begin
        match guard ~caller ~callee with
        | None -> `Local
        | Some alpha ->
            let counts =
              match tctx.guard_counts with
              | Some h -> h
              | None ->
                  let h = Hashtbl.create 4 in
                  tctx.guard_counts <- Some h;
                  h
            in
            let key = (caller, callee) in
            let cnt =
              match Hashtbl.find_opt counts key with
              | Some r -> r
              | None ->
                  let r = ref 0 in
                  Hashtbl.replace counts key r;
                  r
            in
            if !cnt < alpha then begin
              incr cnt;
              `Local
            end
            else `Remote
      end
      else `Remote
  | Container_merge { member_base_mem; _ } ->
      if Hashtbl.mem dep.members_tbl callee then `Cm_local (member_base_mem callee) else `Remote

let record_span sim ~caller ~callee ~kind =
  if sim.profiling then
    Trace.record_span sim.store { Trace.ts = sim.now_; caller; callee; kind }

let record_resources sim c ~fn =
  if sim.profiling then begin
    settle sim c sim.now_;
    (* Peak memory per function INSTANCE, not per container: concurrent
       requests inflate the container's resident set, but the decision
       algorithm's α-scaling already accounts for concurrency (§4.1), so
       feeding it container peaks would double-count.  Approximate the
       per-instance footprint as the base image plus this container's
       workspace divided over its in-flight requests. *)
    (* The shared runtime/base image belongs to the container, not to each
       instance (the decision's mem_overhead covers it once); an instance's
       own footprint is its workspace share plus a small per-instance margin
       (stack, arenas). *)
    let base = c.cspec.base_mem_mb in
    let workspace = Float.max 0.0 (c.mem_in_use -. base) in
    let per_instance = 1.0 +. (workspace /. float_of_int (max 1 c.n_tasks)) in
    Trace.record_resource sim.store
      {
        Trace.rs_ts = sim.now_;
        container = c.cid;
        fn;
        cpu_us_cum = c.cpu_used_us;
        mem_mb = per_instance;
        invocations_cum = c.invocations;
      }
  end

(* Merged and CM containers run several functions in one process, so the
   container-level counters cannot attribute resources per function.  The
   merged binary's §8 billing instrumentation stands in: on each member
   execution we report the member's modeled demand (its own Compute/Mem
   phases, pre-summed at call-tree build time) as a cumulative
   per-(container, function) counter series, which the Builder aggregates
   exactly like cAdvisor samples.  Cells live on the container, keyed by
   function name — the seed's process-wide (cid, fn)-tuple table cost a
   tuple allocation per lookup on the completion path. *)
let record_monitor sim c (node : Calltree.node) =
  if sim.profiling && not c.dead then begin
    let cell =
      try Hashtbl.find c.monitors node.Calltree.fn
      with Not_found ->
        let cell = { m_cpu = 0.0; m_inv = 0; m_peak = 0.0 } in
        Hashtbl.add c.monitors node.Calltree.fn cell;
        cell
    in
    cell.m_cpu <- cell.m_cpu +. node.Calltree.own_cpu_us;
    cell.m_inv <- cell.m_inv + 1;
    cell.m_peak <- Float.max cell.m_peak (1.0 +. node.Calltree.own_mem_mb);
    Trace.record_resource sim.store
      {
        Trace.rs_ts = sim.now_;
        container = c.cid;
        fn = node.Calltree.fn;
        cpu_us_cum = cell.m_cpu;
        mem_mb = cell.m_peak;
        invocations_cum = cell.m_inv;
      }
  end

(* Completion record for one traced remote task — the whole handler
   execution in its container.  CPU and memory report the modeled
   per-invocation demand (own phases plus the server-side RPC cost), the
   same series the §8 monitor cells feed the ground-truth profiler, so the
   live profiler's reconstruction stays comparable. *)
let emit_task_span sim (o : obs_ctx) c (node : Calltree.node) ~ok =
  match sim.span_sink with
  | Some sk ->
      sk.sk_task ~rid:o.o_rid ~fn:node.Calltree.fn ~caller:o.o_caller ~cid:c.cid
        ~node:c.c_node ~t_send:o.o_send ~t_enq:o.o_enq ~t_start:o.o_start ~t_end:sim.now_
        ~cpu_us:(node.Calltree.own_cpu_us +. sim.prm.Params.rpc_server_cpu_us)
        ~mem_mb:(1.0 +. node.Calltree.own_mem_mb)
        ~async:o.o_async ~local:false ~ok
  | None -> ()

let rec exec_node sim dep c tctx (node : Calltree.node) (k_done : bool -> unit) =
  let held = ref 0.0 in
  (* Allocated on the first async call/join; most nodes never need it. *)
  let futures : (int, [ `Ready of bool | `Pending of (bool -> unit) option ref ]) Hashtbl.t option ref =
    ref None
  in
  let futures_tbl () =
    match !futures with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        futures := Some h;
        h
  in
  let finish ok =
    if !held > 0.0 then begin
      release_mem c !held;
      held := 0.0
    end;
    k_done ok
  in
  (* Traced-request member calls: wrap the continuation so the call's
     completion record is emitted with the child's modeled demand (matching
     the §8 monitor cells).  Returns [k] unchanged on the untraced path. *)
  let obs_local child async k =
    match sim.span_sink with
    | Some sk when tctx.t_orid >= 0 ->
        let t0 = sim.now_ in
        fun ok ->
          sk.sk_task ~rid:tctx.t_orid ~fn:child.Calltree.fn
            ~caller:(Some node.Calltree.fn) ~cid:c.cid ~node:c.c_node ~t_send:t0 ~t_enq:t0
            ~t_start:t0 ~t_end:sim.now_ ~cpu_us:child.Calltree.own_cpu_us
            ~mem_mb:(1.0 +. child.Calltree.own_mem_mb) ~async ~local:true ~ok;
          k ok
    | _ -> k
  in
  let rec go phases =
    if tctx.t_failed || c.dead then finish false
    else begin
      match phases with
      | [] -> finish true
      | p :: rest -> (
          let continue () = go rest in
          (* Only the Join/Call branches consume a success flag; keeping
             the guarded closure out of the Compute/Io/Mem path saves two
             closure allocations per plain phase. *)
          match p with
          | Calltree.Compute us -> add_compute sim c us continue
          | Calltree.Io us ->
              schedule sim us (fun () -> if tctx.t_failed || c.dead then finish false else continue ())
          | Calltree.Mem mb ->
              held := !held +. mb;
              if add_mem sim dep c mb then continue ()
              (* on OOM the fail hook has already fired the root failure *)
          | Calltree.Join fid -> (
              let guarded_continue ok = if ok then continue () else finish false in
              match Hashtbl.find_opt (futures_tbl ()) fid with
              | Some (`Ready ok) -> guarded_continue ok
              | Some (`Pending waiter) ->
                  waiter := Some (fun ok -> if tctx.t_failed || c.dead then finish false else guarded_continue ok)
              | None -> failwith "Engine: join on unknown future")
          | Calltree.Call { kind; future; child } -> (
              let guarded_continue ok = if ok then continue () else finish false in
              let resolve_future fid ok =
                let futures = futures_tbl () in
                match Hashtbl.find_opt futures fid with
                | Some (`Pending waiter) -> (
                    Hashtbl.replace futures fid (`Ready ok);
                    match !waiter with Some w -> w ok | None -> ())
                | Some (`Ready _) | None -> Hashtbl.replace futures fid (`Ready ok)
              in
              match call_decision dep tctx ~caller:node.Calltree.fn ~callee:child.Calltree.fn, kind, future with
              | `Local, Trace.Sync, _ ->
                  sim.c_local <- sim.c_local + 1;
                  record_span sim ~caller:(Some node.Calltree.fn) ~callee:child.Calltree.fn ~kind;
                  (* In-process call: sub-microsecond. *)
                  exec_node sim dep c tctx child
                    (obs_local child false (fun ok ->
                         record_monitor sim c child;
                         guarded_continue ok))
              | `Local, Trace.Async, Some fid ->
                  sim.c_local <- sim.c_local + 1;
                  record_span sim ~caller:(Some node.Calltree.fn) ~callee:child.Calltree.fn ~kind;
                  Hashtbl.replace (futures_tbl ()) fid (`Pending (ref None));
                  exec_node sim dep c tctx child
                    (obs_local child true (fun ok ->
                         record_monitor sim c child;
                         resolve_future fid ok));
                  continue ()
              | `Local, Trace.Async, None -> failwith "Engine: async call without future id"
              | `Cm_local base, Trace.Sync, _ ->
                  record_span sim ~caller:(Some node.Calltree.fn) ~callee:child.Calltree.fn ~kind;
                  cm_exec sim dep c tctx child base (obs_local child false guarded_continue)
              | `Cm_local base, Trace.Async, Some fid ->
                  record_span sim ~caller:(Some node.Calltree.fn) ~callee:child.Calltree.fn ~kind;
                  Hashtbl.replace (futures_tbl ()) fid (`Pending (ref None));
                  cm_exec sim dep c tctx child base
                    (obs_local child true (fun ok -> resolve_future fid ok));
                  continue ()
              | `Cm_local _, Trace.Async, None -> failwith "Engine: async call without future id"
              | `Remote, Trace.Sync, _ ->
                  (* The caller pays CPU to serialize and issue the RPC. *)
                  add_compute sim c sim.prm.Params.rpc_client_cpu_us (fun () ->
                      remote_invoke sim ~caller:(Some node.Calltree.fn) ~kind
                        ~orid:tctx.t_orid child guarded_continue)
              | `Remote, Trace.Async, Some fid ->
                  Hashtbl.replace (futures_tbl ()) fid (`Pending (ref None));
                  add_compute sim c sim.prm.Params.rpc_client_cpu_us (fun () ->
                      remote_invoke sim ~caller:(Some node.Calltree.fn) ~kind
                        ~orid:tctx.t_orid child (fun ok -> resolve_future fid ok);
                      continue ())
              | `Remote, Trace.Async, None -> failwith "Engine: async call without future id"))
    end
  in
  go node.Calltree.phases

(* CM: the callee runs as its own process in the same container, behind the
   internal gateway: a hop of CPU work plus the process's base memory for
   the duration. *)
and cm_exec sim dep c tctx child base_mem k =
  let hop = sim.prm.Params.cm_call_us in
  add_compute sim c (hop *. 0.4) (fun () ->
      schedule sim (hop *. 0.6) (fun () ->
          if tctx.t_failed || c.dead then k false
          else if not (add_mem sim dep c base_mem) then ()
          else
            exec_node sim dep c tctx child (fun ok ->
                record_monitor sim c child;
                release_mem c base_mem;
                k ok)))

and remote_invoke sim ~caller ~kind ~orid (child : Calltree.node) k =
  sim.c_remote <- sim.c_remote + 1;
  record_span sim ~caller ~callee:child.Calltree.fn ~kind;
  let obs =
    if orid >= 0 then
      Some
        {
          o_rid = orid;
          o_caller = caller;
          o_async = (match kind with Trace.Async -> true | Trace.Sync -> false);
          o_send = sim.now_;
          o_enq = sim.now_;
          o_start = sim.now_;
        }
    else None
  in
  (* One topology lookup per invocation prices both legs of the hop (and
     classifies it in the same-node/same-rack/cross-rack counters). *)
  let rtt_us = hop_rtt_us sim ~caller ~callee:child.Calltree.fn in
  let leg = Params.remote_leg_us ?rtt_us sim.prm ~profiled:sim.profiling ~payload:child.Calltree.req in
  (* One hop = request leg, callee execution, response leg.  The router's
     per-hop timeout (when armed) fails the caller after [hop_timeout_us]
     even though the callee may keep executing — that orphaned execution is
     exactly the wasted work a retry then replays. *)
  let settled = ref false in
  let finish ok =
    if not !settled then begin
      settled := true;
      k ok
    end
  in
  (match sim.hop_timeout_us with
  | Some t ->
      schedule sim t (fun () ->
          if not !settled then begin
            sim.c_hop_timeout <- sim.c_hop_timeout + 1;
            finish false
          end)
  | None -> ());
  let verdict =
    match sim.net_fault with
    | None -> Net_ok
    | Some f -> f ~caller ~callee:child.Calltree.fn
  in
  match verdict with
  | Net_drop ->
      (* The request vanishes on the wire.  With a hop timeout the caller
         recovers after [t]; without one the call is lost for good. *)
      sim.c_net_drop <- sim.c_net_drop + 1
  | Net_ok | Net_delay _ ->
      let extra = match verdict with Net_delay d -> Float.max 0.0 d | _ -> 0.0 in
      schedule sim (leg +. extra) (fun () ->
          dispatch sim obs child (fun ok ->
              let back = Params.response_leg_us ?rtt_us sim.prm ~payload:child.Calltree.res in
              schedule sim back (fun () -> finish ok)))

and dispatch sim obs (node : Calltree.node) k =
  (match obs with Some o -> o.o_enq <- sim.now_ | None -> ());
  let dep = deployment_for sim node.Calltree.fn in
  match try_assign sim dep obs node k with
  | true -> ()
  | false -> Queue.add (node, obs, k) dep.waitq

and try_assign sim dep obs node k =
  match pick_container sim dep with
  | Some c ->
      start_task sim dep c obs node k;
      true
  | None ->
      (* No pod accepts: scale up if allowed, but keep the request queued at
         the controller — it will be placed on whichever pod frees first
         (the new one after its cold start, or an existing one once its CPU
         slot opens).  The gate avoids a thundering herd of cold starts. *)
      let alive = List.filter (fun c -> not c.dead) dep.pool in
      let n_alive = List.length alive in
      let starting = List.length (List.filter (fun c -> not c.ready) alive) in
      let slots = Float.max 1.0 (dep.dspec.vcpus *. sim.prm.Params.utilization_threshold) in
      if
        n_alive < dep.dspec.max_scale
        && float_of_int (Queue.length dep.waitq + 1) > float_of_int starting *. slots
      then begin
        (* The autoscaler only adds a container if the deployment's node can
           reserve it; a full node leaves the request queued against the
           existing pool (and bumps the denial counter for the operator).
           The deployment's FIRST container is always admitted: placement
           decided the service fits this node, and a neighbour's scale-ups
           must not be able to starve it of its one guaranteed pod. *)
        if n_alive = 0 || node_has_capacity sim dep then ignore (cold_start sim dep)
        else
          match sim.cluster with
          | Some cs -> cs.ch_cap_denials <- cs.ch_cap_denials + 1
          | None -> ()
      end;
      false

and start_task sim dep c obs node k =
  sim.next_tid <- sim.next_tid + 1;
  let tid = sim.next_tid in
  let t_orid = match obs with Some o -> o.o_rid | None -> -1 in
  let tctx = { tid; t_orid; t_failed = false; guard_counts = None } in
  let done_once = ref false in
  let k1 ok =
    if not !done_once then begin
      done_once := true;
      Hashtbl.remove c.fail_hooks tid;
      if not c.dead then begin
        c.n_tasks <- c.n_tasks - 1;
        if c.n_tasks = 0 then c.idle_since <- sim.now_;
        c.invocations <- c.invocations + 1;
        (match dep.dspec.mode with
        | Plain -> record_resources sim c ~fn:dep.dspec.service
        | Merged _ | Container_merge _ ->
            (* Container-level samples would attribute every member's work to
               the root service; the per-member monitor cells carry the
               per-function split instead. *)
            record_monitor sim c node)
      end;
      (match obs with Some o -> emit_task_span sim o c node ~ok | None -> ());
      k ok;
      drain_queue sim dep
    end
  in
  c.n_tasks <- c.n_tasks + 1;
  Hashtbl.replace c.fail_hooks tid (fun () ->
      tctx.t_failed <- true;
      k1 false);
  let begin_exec () =
    if c.dead then k1 false
    else begin
      let idle_for = sim.now_ -. c.idle_since in
      let needs_specialize =
        c.invocations > 0 && idle_for > sim.prm.Params.idle_specialize_timeout_us && c.n_tasks = 1
      in
      let body () =
        (match obs with Some o -> o.o_start <- sim.now_ | None -> ());
        if c.dead then k1 false
        else
          (* Receiving the invocation costs CPU before the handler runs. *)
          add_compute sim c sim.prm.Params.rpc_server_cpu_us (fun () ->
              if c.dead then k1 false else exec_node sim dep c tctx node (fun ok -> k1 ok))
      in
      if needs_specialize then schedule sim sim.prm.Params.specialize_us body else body ()
    end
  in
  if c.ready then begin_exec () else c.backlog <- begin_exec :: c.backlog

and drain_queue sim dep =
  (* Task completion inside try_assign can re-enter; the guard makes inner
     calls no-ops so the outer loop's pop/peek stays consistent. *)
  if not dep.draining then begin
    dep.draining <- true;
    let continue = ref true in
    while !continue && not (Queue.is_empty dep.waitq) do
      let node, obs, k = Queue.pop dep.waitq in
      if not (try_assign sim dep obs node k) then begin
        (* No capacity: put the request back at the head. *)
        let rest = Queue.create () in
        Queue.transfer dep.waitq rest;
        Queue.add (node, obs, k) dep.waitq;
        Queue.transfer rest dep.waitq;
        continue := false
      end
    done;
    dep.draining <- false
  end

let () =
  drain_hook :=
    fun sim c ->
      match Hashtbl.find_opt sim.deployments c.cspec.service with
      | Some dep -> drain_queue sim dep
      | None -> ()

(* §5.5 rolling update: the new version lives under a fresh internal name;
   one container is started proactively, and the public route flips to the
   new version only when that container is ready. *)
let deploy_rolling sim spec =
  if not (mem_deployment sim spec.service) then deploy sim spec
  else begin
    sim.next_cid <- sim.next_cid + 1;
    let vname = Printf.sprintf "%s#v%d" spec.service sim.next_cid in
    let dep = make_deployment spec in
    Hashtbl.replace sim.deployments vname dep;
    let c = cold_start sim dep in
    (* Flip the route when the pre-warmed container comes up.  cold_start
       already scheduled the readiness event; poll right after it. *)
    let rec flip_when_ready () =
      if c.dead then Hashtbl.replace sim.routes spec.service vname (* failed start: flip anyway *)
      else if c.ready then Hashtbl.replace sim.routes spec.service vname
      else schedule sim 10_000.0 flip_when_ready
    in
    schedule sim 10_000.0 flip_when_ready
  end

(* --- Client interface --- *)

(* Two-level cache (entry, then request payload): the seed keyed one table
   by (entry, req) pairs, allocating a tuple per submit. *)
let calltree sim ~entry ~req =
  let per_entry =
    try Hashtbl.find sim.ctree_cache entry
    with Not_found ->
      let h = Hashtbl.create 16 in
      Hashtbl.add sim.ctree_cache entry h;
      h
  in
  try Hashtbl.find per_entry req
  with Not_found ->
    let n = Calltree.build sim.registry ~entry ~req in
    Hashtbl.add per_entry req n;
    n

(* Completion hooks run on every client-visible response; a tail-recursive
   walk keeps the per-completion path free of iterator closures. *)
let rec fire_hooks hs ~entry ~latency_us ~ok =
  match hs with
  | [] -> ()
  | h :: tl ->
      h ~entry ~latency_us ~ok;
      fire_hooks tl ~entry ~latency_us ~ok

let submit sim ~entry ~req ~on_done =
  let t0 = sim.now_ in
  let node = calltree sim ~entry ~req in
  record_span sim ~caller:None ~callee:entry ~kind:Trace.Sync;
  sim.next_rid <- sim.next_rid + 1;
  (* Head sampling: the sink decides once per root request; the verdict
     propagates down the chain via [obs]/[tctx.t_orid]. *)
  let obs =
    match sim.span_sink with
    | Some sk when sk.sk_sample sim.next_rid ->
        Some
          {
            o_rid = sim.next_rid;
            o_caller = None;
            o_async = false;
            o_send = t0;
            o_enq = t0;
            o_start = t0;
          }
    | _ -> None
  in
  let complete ok =
    if ok then sim.c_done <- sim.c_done + 1 else sim.c_fail <- sim.c_fail + 1;
    let latency_us = sim.now_ -. t0 in
    fire_hooks sim.completion_hooks ~entry ~latency_us ~ok;
    on_done ~latency_us ~ok
  in
  let leg = Params.remote_leg_us sim.prm ~profiled:sim.profiling ~payload:req in
  let verdict =
    match sim.net_fault with None -> Net_ok | Some f -> f ~caller:None ~callee:entry
  in
  match verdict with
  | Net_drop ->
      (* The client observes a connection timeout: the request never reaches
         the gateway, and [on_done] stays total so the load generators'
         accounting holds. *)
      sim.c_net_drop <- sim.c_net_drop + 1;
      let wait = match sim.hop_timeout_us with Some t -> t | None -> 0.0 in
      schedule sim wait (fun () -> complete false)
  | Net_ok | Net_delay _ ->
      let extra = match verdict with Net_delay d -> Float.max 0.0 d | _ -> 0.0 in
      schedule sim (leg +. extra) (fun () ->
          dispatch sim obs node (fun ok ->
              let back = Params.response_leg_us sim.prm ~payload:node.Calltree.res in
              schedule sim back (fun () -> complete ok)))

let run_until sim t =
  let continue = ref true in
  while !continue do
    let ts = Sched.next_time sim.events in
    if ts <= t then begin
      let thunk = Sched.pop_exn sim.events in
      sim.now_ <- Float.max sim.now_ (Sched.last_time sim.events);
      thunk ()
    end
    else begin
      sim.now_ <- Float.max sim.now_ t;
      continue := false
    end
  done;
  sync_stats sim

let drain sim =
  while not (Sched.is_empty sim.events) do
    let thunk = Sched.pop_exn sim.events in
    sim.now_ <- Float.max sim.now_ (Sched.last_time sim.events);
    thunk ()
  done;
  sync_stats sim

let counters sim =
  {
    cold_starts = sim.c_cold;
    oom_kills = sim.c_oom;
    completed = sim.c_done;
    failed = sim.c_fail;
    remote_invocations = sim.c_remote;
    local_invocations = sim.c_local;
    crash_kills = sim.c_crash;
    net_drops = sim.c_net_drop;
    hop_timeouts = sim.c_hop_timeout;
  }

(* --- Fault-injection hook points --- *)

let set_network_fault sim f = sim.net_fault <- f

let set_hop_timeout sim t = sim.hop_timeout_us <- t

let set_cold_pull_factor sim x = sim.cold_pull_factor <- Float.max 1e-3 x

let iter_all_containers sim f =
  Hashtbl.iter (fun _ dep -> List.iter (fun c -> if not c.dead then f dep c) dep.pool) sim.deployments

(* Changing the CPU-degradation factor mid-flight must not mis-account
   running segments: settle everything at the old rate first, then install
   the new factor and reschedule (the epoch bump invalidates stale events). *)
let set_cpu_fault sim f =
  iter_all_containers sim (fun _ c -> settle sim c sim.now_);
  sim.cpu_fault <- f;
  iter_all_containers sim (fun _ c -> reschedule_cpu sim c)

let container_ids sim ~fn =
  match Hashtbl.find_opt sim.deployments (match Hashtbl.find_opt sim.routes fn with Some d -> d | None -> fn) with
  | None -> []
  | Some dep -> List.sort compare (List.filter_map (fun c -> if c.dead then None else Some c.cid) dep.pool)

let kill_container sim ~fn ~cid =
  match Hashtbl.find_opt sim.deployments (match Hashtbl.find_opt sim.routes fn with Some d -> d | None -> fn) with
  | None -> false
  | Some dep -> (
      match List.find_opt (fun c -> c.cid = cid && not c.dead) dep.pool with
      | None -> false
      | Some c ->
          sim.c_crash <- sim.c_crash + 1;
          kill_impl sim dep c;
          (* Unlike OOM (whose fail hooks re-enter the drain), a crash can
             hit an idle container with queued work behind it; make sure the
             queue re-evaluates (and cold-starts a replacement if needed). *)
          drain_queue sim dep;
          true)

let kill_all_containers sim ~fn =
  List.fold_left (fun n cid -> if kill_container sim ~fn ~cid then n + 1 else n) 0 (container_ids sim ~fn)

(* A memory-pressure spike: every live, ready container of the routed
   deployment transiently holds [mb] more resident memory.  Containers the
   spike pushes past their limit OOM; survivors release it after
   [duration_us].  Returns (spiked, oom_killed). *)
let mem_spike sim ~fn ~mb ~duration_us =
  match Hashtbl.find_opt sim.deployments (match Hashtbl.find_opt sim.routes fn with Some d -> d | None -> fn) with
  | None -> (0, 0)
  | Some dep ->
      let victims = List.filter (fun c -> (not c.dead) && c.ready) dep.pool in
      let oomed = ref 0 in
      List.iter
        (fun c ->
          if add_mem sim dep c mb then
            schedule sim duration_us (fun () -> release_mem c mb)
          else incr oomed)
        victims;
      (List.length victims, !oomed)

let pool_size sim dname =
  match Hashtbl.find_opt sim.deployments dname with
  | Some dep -> List.length (List.filter (fun c -> not c.dead) dep.pool)
  | None -> 0

let peak_pool_size sim dname =
  match Hashtbl.find_opt sim.deployments dname with Some dep -> dep.peak | None -> 0

let total_base_mem_mb sim =
  Hashtbl.fold
    (fun _ dep acc ->
      List.fold_left (fun a c -> if c.dead then a else a +. c.mem_in_use) acc dep.pool)
    sim.deployments 0.0

(* --- Cluster topology API --- *)

let set_topology ?(assign = []) sim topo =
  match topo with
  | Topology.Flat -> sim.cluster <- None
  | Topology.Cluster c ->
      let n = Array.length c.Topology.nodes in
      let tbl = Hashtbl.create 32 in
      List.iter
        (fun (service, id) ->
          if id < 0 || id >= n then
            invalid_arg
              (Printf.sprintf "Engine.set_topology: node %d out of range for %s" id service);
          Hashtbl.replace tbl (base_service service) id)
        assign;
      let nstates =
        Array.map
          (fun nd ->
            {
              ns_node = nd;
              ns_used_vcpus = 0.0;
              ns_used_mem_mb = 0.0;
              ns_planned_vcpus = 0.0;
              ns_planned_mem_mb = 0.0;
              ns_containers = 0;
              ns_images = Hashtbl.create 8;
            })
          c.Topology.nodes
      in
      (* Placement is admission: hold each assigned service's first-pod
         footprint on its node so neighbours' scale-ups cannot take it.
         Services deployed after [set_topology] simply aren't planned. *)
      let pending = Hashtbl.create 32 in
      Hashtbl.iter
        (fun base id ->
          let dname = match Hashtbl.find_opt sim.routes base with Some d -> d | None -> base in
          match Hashtbl.find_opt sim.deployments dname with
          | None -> ()
          | Some dep ->
              let s = dep.dspec in
              Hashtbl.replace pending base (s.vcpus, s.mem_limit_mb);
              let ns = nstates.(id) in
              ns.ns_planned_vcpus <- ns.ns_planned_vcpus +. s.vcpus;
              ns.ns_planned_mem_mb <- ns.ns_planned_mem_mb +. s.mem_limit_mb)
        tbl;
      sim.cluster <-
        Some
          {
            topo = c;
            nstates;
            assign = tbl;
            pending;
            ch_same_node = 0;
            ch_same_rack = 0;
            ch_cross_rack = 0;
            ch_image_hits = 0;
            ch_cap_denials = 0;
          }

let topology sim =
  match sim.cluster with None -> Topology.Flat | Some cs -> Topology.Cluster cs.topo

let node_of_service sim name =
  match sim.cluster with None -> None | Some _ -> Some (node_of_fn sim name)

let rack_of_service sim name =
  match sim.cluster with
  | None -> None
  | Some cs -> Some cs.topo.Topology.nodes.(node_of_fn sim name).Topology.rack

let reassign sim ~service ~node =
  match sim.cluster with
  | None -> false
  | Some cs ->
      if node < 0 || node >= Array.length cs.nstates then false
      else begin
        let base = base_service service in
        (* An unstarted service takes its planned first-pod hold with it. *)
        (match (Hashtbl.find_opt cs.pending base, Hashtbl.find_opt cs.assign base) with
        | Some (pv, pm), Some old when old <> node ->
            let o = cs.nstates.(old) and n = cs.nstates.(node) in
            o.ns_planned_vcpus <- Float.max 0.0 (o.ns_planned_vcpus -. pv);
            o.ns_planned_mem_mb <- Float.max 0.0 (o.ns_planned_mem_mb -. pm);
            n.ns_planned_vcpus <- n.ns_planned_vcpus +. pv;
            n.ns_planned_mem_mb <- n.ns_planned_mem_mb +. pm
        | _ -> ());
        Hashtbl.replace cs.assign base node;
        true
      end

type node_load = {
  nl_node : Topology.node;
  nl_used_vcpus : float;
  nl_used_mem_mb : float;
  nl_containers : int;
}

let node_loads sim =
  match sim.cluster with
  | None -> [||]
  | Some cs ->
      Array.map
        (fun ns ->
          {
            nl_node = ns.ns_node;
            nl_used_vcpus = ns.ns_used_vcpus;
            nl_used_mem_mb = ns.ns_used_mem_mb;
            nl_containers = ns.ns_containers;
          })
        cs.nstates

let topo_counters sim =
  match sim.cluster with
  | None ->
      {
        hops_same_node = 0;
        hops_same_rack = 0;
        hops_cross_rack = 0;
        image_cache_hits = 0;
        capacity_denials = 0;
      }
  | Some cs ->
      {
        hops_same_node = cs.ch_same_node;
        hops_same_rack = cs.ch_same_rack;
        hops_cross_rack = cs.ch_cross_rack;
        image_cache_hits = cs.ch_image_hits;
        capacity_denials = cs.ch_cap_denials;
      }

(* A node is a failure domain: kill every container it hosts (in-flight
   requests fail exactly once, queued work re-evaluates and cold-starts
   replacements — which re-pull, because the machine's image cache died
   with it).  Returns the number of containers killed. *)
let kill_node sim ~node =
  match sim.cluster with
  | None -> 0
  | Some cs ->
      if node < 0 || node >= Array.length cs.nstates then 0
      else begin
        Hashtbl.reset cs.nstates.(node).ns_images;
        let victims = ref [] in
        Hashtbl.iter
          (fun _ dep ->
            List.iter
              (fun c -> if (not c.dead) && c.c_node = node then victims := (dep, c) :: !victims)
              dep.pool)
          sim.deployments;
        (* Deterministic kill order regardless of hashtable iteration. *)
        let victims = List.sort (fun (_, a) (_, b) -> compare a.cid b.cid) !victims in
        List.iter
          (fun (dep, c) ->
            if not c.dead then begin
              sim.c_crash <- sim.c_crash + 1;
              kill_impl sim dep c
            end)
          victims;
        List.iter (fun (dep, _) -> drain_queue sim dep) victims;
        List.length victims
      end
