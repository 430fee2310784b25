module Rng = Quilt_util.Rng
module Trace = Quilt_tracing.Trace
module Topology = Quilt_place.Topology

type mode =
  | Plain
  | Merged of { members : string list; guards : ((string * string) * int) list }
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

(* Per-hop observability context, carried by the task from the moment a
   traced request (or one of its remote children) is sent until its
   completion record is emitted.  Untraced hops carry [None] — the common
   case — so the disabled path allocates nothing extra. *)
type obs_ctx = {
  o_rid : int;
  o_caller : string option;
  o_async : bool;
  o_send : float;  (* when the caller issued the hop *)
  mutable o_enq : float;  (* when the controller received it *)
  mutable o_start : float;  (* when the handler began executing *)
}

(* --- Tasks as data --- *)

(* An event's payload.  Only [Thunk] carries a closure: a CPU tick's tag is
   the container's epoch, a [Step]'s or [Task]'s one of the [k_*] kinds
   below. *)
type ev = Thunk of (unit -> unit) | Cpu of container | Step of frame | Task of task

and container = {
  cid : int;
  cspec : spec;
  c_dep : deployment;  (* the deployment whose pool holds the container *)
  mutable ready : bool;
  mutable dead : bool;
  cf : cfloats;
  (* Compute segments under processor sharing, oldest first in
     [0, n_compute): remaining demand (unboxed), the frame the segment's
     end resumes, and what it resumes there (an [s_*] kind, [s_big] set
     for a burst long enough for CFS throttling). *)
  mutable seg_rem : float array;
  mutable seg_fr : frame array;
  mutable seg_kind : int array;
  mutable n_compute : int;
  mutable epoch : int;
  mutable cpu_ev : ev;  (* [Cpu self], the payload of every CPU tick *)
  mutable n_tasks : int;
  mutable invocations : int;
  mutable backlog : task list;  (* tasks waiting for cold start, newest first *)
  c_node : int;  (* hosting worker node (0 when the topology is flat) *)
  mutable c_charged : bool;  (* capacity reserved on the node, to release on kill *)
  fail_hooks : (int, task) Hashtbl.t;  (* in-flight tasks by id, failed on a kill *)
  (* In-process per-function monitor for merged/CM containers (§8's billing
     instrumentation): cumulative modeled CPU / invocations / peak workspace
     per function executed in this container. *)
  monitors : (string, monitor_cell) Hashtbl.t;
}

(* A container's floats that change on every event, in an all-float record
   that OCaml stores flat: writing them allocates nothing. *)
and cfloats = {
  mutable last_update : float;
  mutable cpu_used_us : float;
  mutable mem_in_use : float;
  mutable idle_since : float;
}

and monitor_cell = { mutable m_cpu : float; mutable m_inv : int; mutable m_peak : float }

(* A guarded call from [g_caller]: the first [g_alpha] per request, counted
   in slot [g_pair] of the task's [guards], stay local. *)
and guard = { g_caller : string; g_pair : int; g_alpha : int }

and deployment = {
  mutable dspec : spec;
  mutable pool : container list;
  mutable rr : int;
  mutable peak : int;
  mutable draining : bool;  (* re-entrancy guard for drain_queue *)
  (* Tasks queued at the controller: a list linked through [qnext], from
     [wq_first] to [wq_last]; [no_task] ends it. *)
  mutable wq_first : task;
  mutable wq_last : task;
  mutable wq_len : int;
  (* Merge members, each with its §5.6-guarded callers. *)
  members_tbl : (string, guard list) Hashtbl.t;
  n_guards : int;  (* guarded (caller, callee) pairs, numbered from 0 *)
  mutable scratch : container array;  (* reused alive-pool buffer for pick_container *)
}

(* Where a call runs, and so how the callee frame's end resumes its caller:
   a task's root answers over the network, an in-process member resumes
   directly, a CM member after releasing its process's memory. *)
and link = Root | Local | Cm

(* One remote invocation: a client request or a remote hop, from the moment
   it is sent until its response reaches the caller.  Once started it runs
   as [root], the frame of its call-tree node, in container [tc]. *)
and task = {
  mutable tid : int;
  t_node : Calltree.node;
  mutable root : frame;  (* [no_frame] until the task starts *)
  mutable tc : container;  (* [no_container] until the task starts *)
  t_obs : obs_ctx option;
  t_orid : int;  (* traced root request id; -1 on the untraced fast path *)
  mutable t_failed : bool;
  mutable t_done : bool;
  mutable settled : bool;  (* the caller has its answer (response or hop timeout) *)
  mutable t_ok : bool;  (* the answer the response leg carries *)
  mutable guards : int array;  (* §5.6 per-request counts by [g_pair] *)
  mutable qnext : task;  (* the next task queued at the controller *)
  from : frame;  (* the calling frame of a hop; [no_frame] for a client request *)
  from_fid : int;  (* the future an async hop resolves in [from]; -1 for sync *)
  client : client;  (* [no_client] for a hop *)
  rtt : float option;  (* topology-priced RTT of the hop; [None] when flat *)
}

and client = { entry : string; t0 : float; on_done : latency_us:float -> ok:bool -> unit }

(* One activation of a call-tree node inside a task: the task's root, or a
   member it runs in-process or behind the CM gateway.  Its cursor is the
   list of the node's phases not started yet. *)
and frame = {
  task : task;
  node : Calltree.node;
  mutable next : Calltree.phase list;
  mutable cur : Calltree.phase;  (* the phase started last *)
  mutable futures : int array;  (* [f_*] state per future id, allocated at the first spawn *)
  mutable waiting : int;  (* the future id the frame is joined on, -1 when running *)
  up : frame;  (* the calling frame; [no_frame] for a task's root *)
  link : link;  (* how the frame's end resumes [up] *)
  fid : int;  (* the future an async member call resolves in [up]; -1 for sync *)
  base_mem : float;  (* CM: the member process's base memory *)
  sink : span_sink option;  (* the sink of a traced member call, taken at the call *)
  t_call : float;  (* ... and when the call was made *)
  mutable step_ev : ev;  (* [Step self] once the frame has scheduled a step *)
}

(* Event kinds, in the tag of a [Step] event ... *)
let k_io = 0 (* the frame's I/O wait is over *)
let k_cm = 1 (* a CM member call crossed the in-container gateway *)

(* ... and of a [Task] event. *)
let k_arrive = 2 (* the task's request leg reached the controller *)
let k_body = 3 (* the task's container finished re-specializing *)
let k_respond = 4 (* the task's response leg reached the caller *)
let k_timeout = 5 (* the router's hop timeout for the task expired *)
let k_drop = 6 (* the client's request was dropped at the ingress *)

(* Segment kinds: what the end of a compute segment resumes. *)
let s_phase = 0 (* the frame's next phase *)
let s_remote = 1 (* the remote call the frame paid the client RPC cost for *)
let s_cm = 2 (* a CM member's gateway hop, after its CPU share *)
let s_start = 3 (* the task's handler, after the server RPC cost *)
let s_big = 4

(* Future states. *)
let f_none = 0
let f_pending = 1
let f_ok = 2
let f_failed = 3

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

(* Processor-sharing rates of a container's small and big segments, written
   together by [compute_rates]; all-float, so stored flat. *)
type rates = { mutable r_small : float; mutable r_big : float }

type t = {
  rng : Rng.t;
  prm : Params.t;
  registry : Calltree.registry;
  events : ev Sched.t;
  clock : Sched.clock;  (* the scheduler's clock, read without a call *)
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
  rates : rates;
  cm_cpu_us : float;  (* CPU share of the CM gateway hop *)
  cm_wait_us : float;  (* ... and its wait *)
  (* Segments a CPU tick finished, in finishing order; [cpu_tick] never
     nests, so one buffer per engine serves every tick. *)
  mutable fin_fr : frame array;
  mutable fin_kind : int array;
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

let nop () = ()

(* Placeholders for a task that has not started and for a hop's client
   field.  Nothing reads through them: a task's container is set when it
   starts, and [client] is compared by identity only. *)
let no_spec =
  {
    service = "";
    vcpus = 0.0;
    mem_limit_mb = 0.0;
    base_mem_mb = 0.0;
    image_mb = 0.0;
    max_scale = 0;
    eager_http = false;
    mode = Plain;
  }

let no_ev = Thunk nop

let no_client = { entry = ""; t0 = 0.0; on_done = (fun ~latency_us:_ ~ok:_ -> ()) }

let no_node = { Calltree.fn = ""; req = ""; res = ""; phases = []; own_cpu_us = 0.0; own_mem_mb = 0.0 }

let no_phase = Calltree.Io 0.0

let no_table = Hashtbl.create 1
let no_hooks = Hashtbl.create 1
let no_monitors = Hashtbl.create 1

(* What a freed slot of a segment or finish buffer and the end of a queue
   hold, so that no buffer keeps a finished request alive. *)
let rec no_task =
  {
    tid = -1;
    t_node = no_node;
    root = no_frame;
    tc = no_container;
    t_obs = None;
    t_orid = -1;
    t_failed = true;
    t_done = true;
    settled = true;
    t_ok = false;
    guards = [||];
    qnext = no_task;
    from = no_frame;
    from_fid = -1;
    client = no_client;
    rtt = None;
  }

and no_frame =
  {
    task = no_task;
    node = no_node;
    next = [];
    cur = no_phase;
    futures = [||];
    waiting = -1;
    up = no_frame;
    link = Root;
    fid = -1;
    base_mem = 0.0;
    sink = None;
    t_call = 0.0;
    step_ev = no_ev;
  }

and no_container =
  {
    cid = -1;
    cspec = no_spec;
    c_dep =
      {
        dspec = no_spec;
        pool = [];
        rr = 0;
        peak = 0;
        draining = false;
        wq_first = no_task;
        wq_last = no_task;
        wq_len = 0;
        members_tbl = no_table;
        n_guards = 0;
        scratch = [||];
      };
    ready = false;
    dead = true;
    cf = { last_update = 0.0; cpu_used_us = 0.0; mem_in_use = 0.0; idle_since = 0.0 };
    seg_rem = [||];
    seg_fr = [||];
    seg_kind = [||];
    n_compute = 0;
    epoch = 0;
    cpu_ev = Thunk nop;
    n_tasks = 0;
    invocations = 0;
    backlog = [];
    c_node = 0;
    c_charged = false;
    fail_hooks = no_hooks;
    monitors = no_monitors;
  }

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
  let events = Sched.create ~dummy:(Thunk nop) () in
  {
    rng = Rng.create seed;
    prm = params;
    registry;
    events;
    clock = Sched.clock events;
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
    rates = { r_small = 0.0; r_big = 0.0 };
    cm_cpu_us = params.Params.cm_call_us *. 0.4;
    cm_wait_us = params.Params.cm_call_us *. 0.6;
    fin_fr = [||];
    fin_kind = [||];
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

let now sim = sim.clock.Sched.now
let tracing sim = sim.store
let set_profiling sim b = sim.profiling <- b
let events_processed sim = Sched.popped_total sim.events
let peak_queue_depth sim = Sched.peak_length sim.events

let schedule sim delay thunk = Sched.schedule_in sim.events ~delay ~tag:0 (Thunk thunk)

let step_in sim delay fr kind =
  if fr.step_ev == no_ev then fr.step_ev <- Step fr;
  Sched.schedule_in sim.events ~delay ~tag:kind fr.step_ev

let task_in sim delay t kind = Sched.schedule_in sim.events ~delay ~tag:kind (Task t)

(* Files each guarded member pair under its callee in [members_tbl],
   numbering the pairs from [n]; the first entry for a pair wins.  Returns
   the number of pairs. *)
let rec number_guards members_tbl n = function
  | [] -> n
  | ((caller, callee), alpha) :: tl ->
      if Hashtbl.mem members_tbl caller && Hashtbl.mem members_tbl callee then begin
        let gs = Hashtbl.find members_tbl callee in
        if List.exists (fun g -> String.equal g.g_caller caller) gs then number_guards members_tbl n tl
        else begin
          Hashtbl.replace members_tbl callee ({ g_caller = caller; g_pair = n; g_alpha = alpha } :: gs);
          number_guards members_tbl (n + 1) tl
        end
      end
      else number_guards members_tbl n tl

let make_deployment spec =
  let members_tbl = Hashtbl.create 8 in
  let n_guards =
    match spec.mode with
    | Plain -> 0
    | Container_merge { members; _ } ->
        List.iter (fun m -> Hashtbl.replace members_tbl m []) members;
        0
    | Merged { members; guards } ->
        List.iter (fun m -> Hashtbl.replace members_tbl m []) members;
        number_guards members_tbl 0 guards
  in
  {
    dspec = spec;
    pool = [];
    rr = 0;
    peak = 0;
    draining = false;
    wq_first = no_task;
    wq_last = no_task;
    wq_len = 0;
    members_tbl;
    n_guards;
    scratch = [||];
  }

let deploy sim spec =
  Hashtbl.replace sim.deployments spec.service (make_deployment spec);
  Hashtbl.replace sim.routes spec.service spec.service

let mem_deployment sim name = Hashtbl.mem sim.deployments name

let deployment_for sim fn =
  let dname = match Hashtbl.find sim.routes fn with d -> d | exception Not_found -> fn in
  match Hashtbl.find sim.deployments dname with
  | d -> d
  | exception Not_found -> failwith (Printf.sprintf "Engine: no deployment for %s" fn)

(* --- The controller's queue: tasks linked through [qnext] --- *)

let wq_push_back dep t =
  t.qnext <- no_task;
  if dep.wq_len = 0 then dep.wq_first <- t else dep.wq_last.qnext <- t;
  dep.wq_last <- t;
  dep.wq_len <- dep.wq_len + 1

let wq_push_front dep t =
  if dep.wq_len = 0 then dep.wq_last <- t;
  t.qnext <- dep.wq_first;
  dep.wq_first <- t;
  dep.wq_len <- dep.wq_len + 1

let wq_pop dep =
  let t = dep.wq_first in
  dep.wq_first <- t.qnext;
  t.qnext <- no_task;
  dep.wq_len <- dep.wq_len - 1;
  if dep.wq_len = 0 then dep.wq_last <- no_task;
  t

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

(* Per-segment progress rate under processor sharing, for the container's
   [n] running segments: a small one and a big one.  Long compute bursts
   additionally lose efficiency when the container's demand exceeds its
   quota — CFS throttling (the Experiment 3 phenomenon).  An injected CPU
   fault (noisy neighbour / thermal degradation) scales the whole container
   down by a service-specific factor. *)
let compute_rates sim c n =
  let nf = float_of_int n in
  let vcpus = c.cspec.vcpus in
  let q = vcpus /. nf in
  let base = if q > 1.0 then 1.0 else q in
  (* Mild over-subscription fits within the CFS period; sustained demand
     well past the quota stalls and loses efficiency. *)
  let big = if nf > vcpus +. 1.5 then base *. sim.prm.Params.cfs_throttle_efficiency else base in
  match sim.cpu_fault with
  | None ->
      sim.rates.r_small <- base;
      sim.rates.r_big <- big
  | Some f ->
      let k = Float.max 1e-3 (Float.min 1.0 (f c.cspec.service)) in
      sim.rates.r_small <- base *. k;
      sim.rates.r_big <- big *. k

(* Segments are charged newest first, the order the seed's segment list
   kept them in: the CPU total sums in that order. *)
let settle sim c =
  let nowt = now sim in
  let n = c.n_compute in
  if n > 0 then begin
    let dt = nowt -. c.cf.last_update in
    if dt > 0.0 then begin
      compute_rates sim c n;
      let small = sim.rates.r_small and big = sim.rates.r_big in
      for i = n - 1 downto 0 do
        let rate = if c.seg_kind.(i) land s_big <> 0 then big else small in
        c.seg_rem.(i) <- c.seg_rem.(i) -. (dt *. rate);
        c.cf.cpu_used_us <- c.cf.cpu_used_us +. (dt *. rate)
      done
    end
  end;
  c.cf.last_update <- nowt

(* A container's pending CPU tick is identified by its epoch: the event's
   tag, compared against the container's current epoch at dispatch. *)
let reschedule_cpu sim c =
  c.epoch <- c.epoch + 1;
  let n = c.n_compute in
  if n > 0 then begin
    compute_rates sim c n;
    let small = sim.rates.r_small and big = sim.rates.r_big in
    let dt = ref infinity in
    for i = n - 1 downto 0 do
      let rate = if c.seg_kind.(i) land s_big <> 0 then big else small in
      let d = c.seg_rem.(i) /. rate in
      if d < !dt then dt := d
    done;
    Sched.schedule_in sim.events ~delay:(if !dt > 0.0 then !dt else 0.0) ~tag:c.epoch c.cpu_ev
  end

let push_seg c us fr kind =
  let n = c.n_compute in
  if n = Array.length c.seg_rem then begin
    let cap = max 4 (2 * n) in
    let rem = Array.make cap 0.0 and frs = Array.make cap no_frame and kinds = Array.make cap 0 in
    Array.blit c.seg_rem 0 rem 0 n;
    Array.blit c.seg_fr 0 frs 0 n;
    Array.blit c.seg_kind 0 kinds 0 n;
    c.seg_rem <- rem;
    c.seg_fr <- frs;
    c.seg_kind <- kinds
  end;
  c.seg_rem.(n) <- us;
  c.seg_fr.(n) <- fr;
  c.seg_kind.(n) <- kind;
  c.n_compute <- n + 1

let push_finished sim i fr kind =
  if i = Array.length sim.fin_fr then begin
    let cap = max 8 (2 * i) in
    let frs = Array.make cap no_frame and kinds = Array.make cap 0 in
    Array.blit sim.fin_fr 0 frs 0 i;
    Array.blit sim.fin_kind 0 kinds 0 i;
    sim.fin_fr <- frs;
    sim.fin_kind <- kinds
  end;
  sim.fin_fr.(i) <- fr;
  sim.fin_kind.(i) <- kind

(* --- Memory and OOM --- *)

let remove_container dep c = dep.pool <- List.filter (fun c' -> c'.cid <> c.cid) dep.pool

let release_mem c mb = if not c.dead then c.cf.mem_in_use <- c.cf.mem_in_use -. mb

(* --- Containers --- *)

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

let rec fill_scratch dep l n =
  match l with
  | [] -> n
  | c :: tl ->
      if c.dead then fill_scratch dep tl n
      else begin
        scratch_put dep n c;
        fill_scratch dep tl (n + 1)
      end

let rec scan_accepting sim dep n i tries =
  if tries >= n then -1
  else if accepts sim dep.scratch.(i mod n) then i mod n
  else scan_accepting sim dep n (i + 1) (tries + 1)

(* Index into [dep.scratch] of the container the next task goes to, -1
   when none accepts. *)
let pick_container sim dep =
  let n = fill_scratch dep dep.pool 0 in
  if n = 0 then -1
  else begin
    (* Round-robin over the pool, Fission-style. *)
    let found = scan_accepting sim dep n dep.rr 0 in
    dep.rr <- (dep.rr + 1) mod n;
    found
  end

let rec count_alive n = function
  | [] -> n
  | c :: tl -> count_alive (if c.dead then n else n + 1) tl

let rec count_starting n = function
  | [] -> n
  | c :: tl -> count_starting (if c.dead || c.ready then n else n + 1) tl

(* --- Execution --- *)

(* A member call from [caller] runs in-process unless one of the callee's
   [guards] names [caller] and has used up its per-request budget. *)
let rec guarded_call dep t caller = function
  | [] -> Local
  | g :: tl ->
      if String.equal g.g_caller caller then begin
        if Array.length t.guards = 0 then t.guards <- Array.make dep.n_guards 0;
        let p = g.g_pair in
        if t.guards.(p) < g.g_alpha then begin
          t.guards.(p) <- t.guards.(p) + 1;
          Local
        end
        else Root
      end
      else guarded_call dep t caller tl

(* Where [fr]'s call to [child] runs: in-process, behind the CM gateway, or
   remote (as a task's [Root]). *)
let call_decision fr (child : Calltree.node) =
  let dep = fr.task.tc.c_dep in
  match dep.dspec.mode with
  | Plain -> Root
  | Merged _ ->
      let callee = child.Calltree.fn in
      (* [mem] first: a cut edge must not raise inside [find]. *)
      if Hashtbl.mem dep.members_tbl callee then
        guarded_call dep fr.task fr.node.Calltree.fn (Hashtbl.find dep.members_tbl callee)
      else Root
  | Container_merge _ ->
      if Hashtbl.mem dep.members_tbl child.Calltree.fn then Cm else Root

let record_span sim ~caller ~callee ~kind =
  if sim.profiling then
    Trace.record_span sim.store { Trace.ts = now sim; caller; callee; kind }

(* A member-to-member call's span: [Some caller] is only built when the
   profiler records it. *)
let record_call sim ~caller ~callee ~kind =
  if sim.profiling then record_span sim ~caller:(Some caller) ~callee ~kind

let record_resources sim c ~fn =
  if sim.profiling then begin
    settle sim c;
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
    let workspace = Float.max 0.0 (c.cf.mem_in_use -. base) in
    let per_instance = 1.0 +. (workspace /. float_of_int (max 1 c.n_tasks)) in
    Trace.record_resource sim.store
      {
        Trace.rs_ts = now sim;
        container = c.cid;
        fn;
        cpu_us_cum = c.cf.cpu_used_us;
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
        Trace.rs_ts = now sim;
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
        ~node:c.c_node ~t_send:o.o_send ~t_enq:o.o_enq ~t_start:o.o_start ~t_end:(now sim)
        ~cpu_us:(node.Calltree.own_cpu_us +. sim.prm.Params.rpc_server_cpu_us)
        ~mem_mb:(1.0 +. node.Calltree.own_mem_mb)
        ~async:o.o_async ~local:false ~ok
  | None -> ()

(* Completion record of a traced member call (in-process or CM), with the
   member's modeled demand, matching the §8 monitor cells. *)
let emit_member_span sim fr ok =
  match fr.sink with
  | Some sk ->
      let c = fr.task.tc and node = fr.node in
      sk.sk_task ~rid:fr.task.t_orid ~fn:node.Calltree.fn ~caller:(Some fr.up.node.Calltree.fn) ~cid:c.cid
        ~node:c.c_node ~t_send:fr.t_call ~t_enq:fr.t_call ~t_start:fr.t_call ~t_end:(now sim)
        ~cpu_us:node.Calltree.own_cpu_us ~mem_mb:(1.0 +. node.Calltree.own_mem_mb)
        ~async:(fr.fid >= 0) ~local:true ~ok
  | None -> ()

let member_frame sim fr child ~link ~fid ~base_mem =
  let t = fr.task in
  let traced = t.t_orid >= 0 && sim.span_sink != None in
  {
    task = t;
    node = child;
    next = child.Calltree.phases;
    cur = no_phase;
    futures = [||];
    waiting = -1;
    up = fr;
    link;
    fid;
    base_mem;
    sink = (if traced then sim.span_sink else None);
    t_call = (if traced then now sim else 0.0);
    step_ev = no_ev;
  }

let rec max_future m = function
  | [] -> m
  | (Calltree.Call { future = Some f; _ } | Calltree.Join f) :: tl -> max_future (max m f) tl
  | _ :: tl -> max_future m tl

let spawn_future fr fid =
  if Array.length fr.futures = 0 then
    fr.futures <- Array.make (1 + max_future 0 fr.node.Calltree.phases) f_none;
  fr.futures.(fid) <- f_pending

let new_task (node : Calltree.node) ~obs ~client ~from ~from_fid ~rtt =
  {
    tid = 0;
    t_node = node;
    root = no_frame;
    tc = no_container;
    t_obs = obs;
    t_orid = (match obs with Some o -> o.o_rid | None -> -1);
    t_failed = false;
    t_done = false;
    settled = false;
    t_ok = false;
    guards = [||];
    qnext = no_task;
    from;
    from_fid;
    client;
    rtt;
  }

let rec cpu_tick sim c =
  settle sim c;
  let n = c.n_compute in
  let finished = ref 0 and running = ref 0 in
  for i = 0 to n - 1 do
    if c.seg_rem.(i) <= 1e-6 then begin
      push_finished sim !finished c.seg_fr.(i) c.seg_kind.(i);
      incr finished
    end
    else begin
      let j = !running in
      c.seg_rem.(j) <- c.seg_rem.(i);
      c.seg_fr.(j) <- c.seg_fr.(i);
      c.seg_kind.(j) <- c.seg_kind.(i);
      running := j + 1
    end
  done;
  Array.fill c.seg_fr !running (n - !running) no_frame;
  c.n_compute <- !running;
  reschedule_cpu sim c;
  (* Newest first, as the seed's segment list fired them. *)
  for j = !finished - 1 downto 0 do
    let fr = sim.fin_fr.(j) in
    sim.fin_fr.(j) <- no_frame;
    segment_done sim fr sim.fin_kind.(j)
  done;
  (* Capacity changed: requests queued at the controller can be placed. *)
  if !finished > 0 then drain_for sim c

and drain_for sim c =
  match Hashtbl.find sim.deployments c.cspec.service with
  | dep -> drain_queue sim dep
  | exception Not_found -> ()

and add_compute sim c us fr kind =
  if c.dead then ()
  else if us <= 0.01 then segment_done sim fr kind
  else begin
    settle sim c;
    push_seg c us fr (if us >= sim.prm.Params.cfs_big_seg_us then kind lor s_big else kind);
    reschedule_cpu sim c
  end

and segment_done sim fr kind =
  let kind = kind land lnot s_big in
  if kind = s_phase then run sim fr
  else if kind = s_remote then issue_remote sim fr
  else if kind = s_cm then step_in sim sim.cm_wait_us fr k_cm
  else begin
    (* [s_start] *)
    let t = fr.task in
    if t.tc.dead then task_done sim t false else run sim fr
  end

(* Returns false when the allocation killed the container. *)
and add_mem sim c mb =
  if c.dead then false
  else begin
    c.cf.mem_in_use <- c.cf.mem_in_use +. mb;
    if c.cf.mem_in_use > c.cspec.mem_limit_mb then begin
      oom_kill sim c.c_dep c;
      false
    end
    else true
  end

and oom_kill sim dep c =
  sim.c_oom <- sim.c_oom + 1;
  kill_impl sim dep c

(* Tear a container down and fail its in-flight requests.  Shared by the
   OOM path and the fault injector's crash kills; only the counter differs.
   Each task fails exactly once: the in-flight table is drained before
   failing, and [task_done]'s guard makes double completion impossible. *)
and kill_impl sim dep c =
  settle sim c;
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
  Array.fill c.seg_fr 0 c.n_compute no_frame;
  c.n_compute <- 0;
  remove_container dep c;
  let inflight = Hashtbl.fold (fun _ t acc -> t :: acc) c.fail_hooks [] in
  Hashtbl.reset c.fail_hooks;
  List.iter
    (fun t ->
      t.t_failed <- true;
      task_done sim t false)
    inflight

(* The frame's next phase, or its end. *)
and run sim fr =
  let t = fr.task in
  let c = t.tc in
  if t.t_failed || c.dead then finish sim fr false
  else begin
    match fr.next with
    | [] -> finish sim fr true
    | p :: rest -> (
      fr.next <- rest;
      fr.cur <- p;
      match p with
      | Calltree.Compute us -> add_compute sim c us fr s_phase
      | Calltree.Io us -> step_in sim us fr k_io
      | Calltree.Mem mb -> if add_mem sim c mb then run sim fr
      (* on OOM the kill has already failed the task *)
      | Calltree.Join fid ->
          let st = fr.futures in
          if fid < 0 || fid >= Array.length st || st.(fid) = f_none then
            failwith "Engine: join on unknown future"
          else if st.(fid) = f_pending then fr.waiting <- fid
          else if st.(fid) = f_ok then run sim fr
          else finish sim fr false
      | Calltree.Call { kind; future; child } -> call sim fr child kind future)
  end

and call sim fr (child : Calltree.node) kind future =
  let c = fr.task.tc in
  let where = call_decision fr child in
  let fid =
    match (kind, future) with
    | Trace.Sync, _ -> -1
    | Trace.Async, Some fid -> fid
    | Trace.Async, None -> failwith "Engine: async call without future id"
  in
  if fid >= 0 then spawn_future fr fid;
  match where with
  | Local ->
      sim.c_local <- sim.c_local + 1;
      record_call sim ~caller:fr.node.Calltree.fn ~callee:child.Calltree.fn ~kind;
      (* In-process call: sub-microsecond. *)
      run sim (member_frame sim fr child ~link:Local ~fid ~base_mem:0.0);
      if fid >= 0 then run sim fr
  | Cm ->
      (* CM: the callee runs as its own process in the same container,
         behind the internal gateway: a hop of CPU work plus the process's
         base memory for the duration. *)
      let base_mem =
        match c.c_dep.dspec.mode with
        | Container_merge { member_base_mem; _ } -> member_base_mem child.Calltree.fn
        | Plain | Merged _ -> assert false
      in
      record_call sim ~caller:fr.node.Calltree.fn ~callee:child.Calltree.fn ~kind;
      add_compute sim c sim.cm_cpu_us (member_frame sim fr child ~link:Cm ~fid ~base_mem) s_cm;
      if fid >= 0 then run sim fr
  | Root ->
      (* The caller pays CPU to serialize and issue the RPC. *)
      add_compute sim c sim.prm.Params.rpc_client_cpu_us fr s_remote

(* The client RPC cost of the frame's current call is paid. *)
and issue_remote sim fr =
  match fr.cur with
  | Calltree.Call { kind; future; child } -> (
      match (kind, future) with
      | Trace.Async, Some fid ->
          remote_invoke sim fr child kind fid;
          run sim fr
      | _ -> remote_invoke sim fr child kind (-1))
  | Calltree.Compute _ | Calltree.Io _ | Calltree.Mem _ | Calltree.Join _ -> assert false

(* The frame releases the workspace its started [Mem] phases hold, summed
   in phase order as they added it. *)
and finish sim fr ok =
  let held = ref 0.0 and l = ref fr.node.Calltree.phases in
  while !l != fr.next do
    match !l with
    | Calltree.Mem mb :: tl ->
        held := !held +. mb;
        l := tl
    | _ :: tl -> l := tl
    | [] -> assert false
  done;
  if !held > 0.0 then release_mem fr.task.tc !held;
  frame_done sim fr ok

and frame_done sim fr ok =
  if fr.link = Root then task_done sim fr.task ok
  else begin
    let c = fr.task.tc in
    if fr.link = Local then begin
      emit_member_span sim fr ok;
      record_monitor sim c fr.node
    end
    else begin
      record_monitor sim c fr.node;
      release_mem c fr.base_mem;
      emit_member_span sim fr ok
    end;
    resume sim fr.up fr.fid ok
  end

(* Hands a call's outcome to the calling frame: a sync call continues it
   (or fails it), an async one resolves its future. *)
and resume sim fr fid ok =
  if fid >= 0 then begin
    let was = fr.futures.(fid) in
    fr.futures.(fid) <- (if ok then f_ok else f_failed);
    if was = f_pending && fr.waiting = fid then begin
      fr.waiting <- -1;
      let t = fr.task in
      if t.t_failed || t.tc.dead then finish sim fr false
      else if ok then run sim fr
      else finish sim fr false
    end
  end
  else if ok then run sim fr
  else finish sim fr false

and remote_invoke sim fr (child : Calltree.node) kind fid =
  sim.c_remote <- sim.c_remote + 1;
  let caller = Some fr.node.Calltree.fn and callee = child.Calltree.fn in
  record_span sim ~caller ~callee ~kind;
  let orid = fr.task.t_orid in
  let obs =
    if orid >= 0 then
      Some
        {
          o_rid = orid;
          o_caller = caller;
          o_async = (match kind with Trace.Async -> true | Trace.Sync -> false);
          o_send = now sim;
          o_enq = now sim;
          o_start = now sim;
        }
    else None
  in
  (* One topology lookup per invocation prices both legs of the hop (and
     classifies it in the same-node/same-rack/cross-rack counters). *)
  let rtt = hop_rtt_us sim ~caller ~callee in
  let leg = Params.remote_leg_us ?rtt_us:rtt sim.prm ~profiled:sim.profiling ~payload:child.Calltree.req in
  let t = new_task child ~obs ~client:no_client ~from:fr ~from_fid:fid ~rtt in
  (* One hop = request leg, callee execution, response leg.  The router's
     per-hop timeout (when armed) fails the caller after [hop_timeout_us]
     even though the callee may keep executing — that orphaned execution is
     exactly the wasted work a retry then replays. *)
  (match sim.hop_timeout_us with Some tmo -> task_in sim tmo t k_timeout | None -> ());
  let verdict = match sim.net_fault with None -> Net_ok | Some f -> f ~caller ~callee in
  match verdict with
  | Net_drop ->
      (* The request vanishes on the wire.  With a hop timeout the caller
         recovers after [t]; without one the call is lost for good. *)
      sim.c_net_drop <- sim.c_net_drop + 1
  | Net_ok -> task_in sim leg t k_arrive
  | Net_delay d -> task_in sim (leg +. Float.max 0.0 d) t k_arrive

and dispatch sim t =
  (match t.t_obs with Some o -> o.o_enq <- now sim | None -> ());
  let dep = deployment_for sim t.t_node.Calltree.fn in
  if not (try_assign sim dep t) then wq_push_back dep t

and try_assign sim dep t =
  let i = pick_container sim dep in
  if i >= 0 then begin
    start_task sim dep.scratch.(i) t;
    true
  end
  else begin
    (* No pod accepts: scale up if allowed, but keep the request queued at
       the controller — it will be placed on whichever pod frees first
       (the new one after its cold start, or an existing one once its CPU
       slot opens).  The gate avoids a thundering herd of cold starts. *)
    let n_alive = count_alive 0 dep.pool in
    let starting = count_starting 0 dep.pool in
    let slots = Float.max 1.0 (dep.dspec.vcpus *. sim.prm.Params.utilization_threshold) in
    if
      n_alive < dep.dspec.max_scale
      && float_of_int (dep.wq_len + 1) > float_of_int starting *. slots
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
  end

and start_task sim c t =
  sim.next_tid <- sim.next_tid + 1;
  t.tid <- sim.next_tid;
  t.tc <- c;
  t.root <-
    {
      task = t;
      node = t.t_node;
      next = t.t_node.Calltree.phases;
      cur = no_phase;
      futures = [||];
      waiting = -1;
      up = no_frame;
      link = Root;
      fid = -1;
      base_mem = 0.0;
      sink = None;
      t_call = 0.0;
      step_ev = no_ev;
    };
  c.n_tasks <- c.n_tasks + 1;
  Hashtbl.replace c.fail_hooks t.tid t;
  if c.ready then begin_exec sim t else c.backlog <- t :: c.backlog

and begin_exec sim t =
  let c = t.tc in
  if c.dead then task_done sim t false
  else begin
    let idle_for = now sim -. c.cf.idle_since in
    let needs_specialize =
      c.invocations > 0 && idle_for > sim.prm.Params.idle_specialize_timeout_us && c.n_tasks = 1
    in
    if needs_specialize then task_in sim sim.prm.Params.specialize_us t k_body
    else begin_body sim t
  end

and begin_body sim t =
  (match t.t_obs with Some o -> o.o_start <- now sim | None -> ());
  let c = t.tc in
  if c.dead then task_done sim t false
  else
    (* Receiving the invocation costs CPU before the handler runs. *)
    add_compute sim c sim.prm.Params.rpc_server_cpu_us t.root s_start

(* The task's handler has ended (or its container died): account for it,
   send the response leg, and let the queue move. *)
and task_done sim t ok =
  if not t.t_done then begin
    t.t_done <- true;
    let c = t.tc in
    let dep = c.c_dep in
    Hashtbl.remove c.fail_hooks t.tid;
    if not c.dead then begin
      c.n_tasks <- c.n_tasks - 1;
      if c.n_tasks = 0 then c.cf.idle_since <- now sim;
      c.invocations <- c.invocations + 1;
      match dep.dspec.mode with
      | Plain -> record_resources sim c ~fn:dep.dspec.service
      | Merged _ | Container_merge _ ->
          (* Container-level samples would attribute every member's work to
             the root service; the per-member monitor cells carry the
             per-function split instead. *)
          record_monitor sim c t.t_node
    end;
    (match t.t_obs with Some o -> emit_task_span sim o c t.t_node ~ok | None -> ());
    t.t_ok <- ok;
    task_in sim (Params.response_leg_us ?rtt_us:t.rtt sim.prm ~payload:t.t_node.Calltree.res) t k_respond;
    drain_queue sim dep
  end

and drain_queue sim dep =
  (* Task completion inside try_assign can re-enter; the guard makes inner
     calls no-ops so the outer loop's pop/peek stays consistent. *)
  if not dep.draining then begin
    dep.draining <- true;
    let continue = ref true in
    while !continue && dep.wq_len > 0 do
      let t = wq_pop dep in
      if not (try_assign sim dep t) then begin
        (* No capacity: put the request back at the head. *)
        wq_push_front dep t;
        continue := false
      end
    done;
    dep.draining <- false
  end

and cold_start sim dep =
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
      c_dep = dep;
      ready = false;
      dead = false;
      cf = { last_update = now sim; cpu_used_us = 0.0; mem_in_use = spec.base_mem_mb; idle_since = now sim };
      seg_rem = [||];
      seg_fr = [||];
      seg_kind = [||];
      n_compute = 0;
      epoch = 0;
      cpu_ev = Thunk nop;
      n_tasks = 0;
      invocations = 0;
      backlog = [];
      c_node = nid;
      c_charged = Option.is_some sim.cluster;
      fail_hooks = Hashtbl.create 8;
      monitors = Hashtbl.create 8;
    }
  in
  c.cpu_ev <- Cpu c;
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
        c.cf.idle_since <- now sim;
        c.cf.last_update <- now sim;
        let pending = List.rev c.backlog in
        c.backlog <- [];
        List.iter (fun t -> begin_exec sim t) pending;
        (* Requests queued at the controller can now be placed. *)
        drain_for sim c
      end);
  c

(* A [Step] event: the frame's I/O wait or CM gateway hop is over. *)
let step sim fr kind =
  let t = fr.task in
  if kind = k_io then begin
    if t.t_failed || t.tc.dead then finish sim fr false else run sim fr
  end
  else begin
    (* [k_cm] *)
    let c = t.tc in
    if t.t_failed || c.dead then begin
      emit_member_span sim fr false;
      resume sim fr.up fr.fid false
    end
    else if add_mem sim c fr.base_mem then run sim fr
  end

(* A [Task] event.  [k_respond] carries the handler's outcome, [k_drop] a
   client request lost at the ingress. *)
let rec task_step sim t kind =
  if kind = k_arrive then dispatch sim t
  else if kind = k_body then begin_body sim t
  else if kind = k_timeout then begin
    if not t.settled then begin
      sim.c_hop_timeout <- sim.c_hop_timeout + 1;
      answer sim t false
    end
  end
  else answer sim t (kind = k_respond && t.t_ok)

(* The hop's answer reaches its caller: the client, or the calling frame
   unless the router already answered it with a timeout. *)
and answer sim t ok =
  if t.client != no_client then begin
    let cl = t.client in
    if ok then sim.c_done <- sim.c_done + 1 else sim.c_fail <- sim.c_fail + 1;
    let latency_us = now sim -. cl.t0 in
    fire_hooks sim.completion_hooks ~entry:cl.entry ~latency_us ~ok;
    cl.on_done ~latency_us ~ok
  end
  else if not t.settled then begin
    t.settled <- true;
    resume sim t.from t.from_fid ok
  end

(* Completion hooks run on every client-visible response; a tail-recursive
   walk keeps the per-completion path free of iterator closures. *)
and fire_hooks hs ~entry ~latency_us ~ok =
  match hs with
  | [] -> ()
  | h :: tl ->
      h ~entry ~latency_us ~ok;
      fire_hooks tl ~entry ~latency_us ~ok

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

let submit sim ~entry ~req ~on_done =
  let t0 = now sim in
  let node = calltree sim ~entry ~req in
  record_span sim ~caller:None ~callee:entry ~kind:Trace.Sync;
  sim.next_rid <- sim.next_rid + 1;
  (* Head sampling: the sink decides once per root request; the verdict
     propagates down the chain via the tasks' [t_obs]/[t_orid]. *)
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
  let t =
    new_task node ~obs ~client:{ entry; t0; on_done } ~from:no_frame ~from_fid:(-1) ~rtt:None
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
      task_in sim wait t k_drop
  | Net_ok -> task_in sim leg t k_arrive
  | Net_delay d -> task_in sim (leg +. Float.max 0.0 d) t k_arrive

let dispatch_event sim = function
  | Thunk f -> f ()
  | Cpu c -> if (not c.dead) && c.epoch = Sched.last_tag sim.events then cpu_tick sim c
  | Step fr -> step sim fr (Sched.last_tag sim.events)
  | Task t -> task_step sim t (Sched.last_tag sim.events)

let run_until sim t =
  while Sched.has_due sim.events t do
    dispatch_event sim (Sched.pop_exn sim.events)
  done;
  Sched.advance sim.events t;
  sync_stats sim

let drain sim =
  while not (Sched.is_empty sim.events) do
    dispatch_event sim (Sched.pop_exn sim.events)
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
  iter_all_containers sim (fun _ c -> settle sim c);
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
          (* Unlike OOM (whose failed tasks re-enter the drain), a crash can
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
          if add_mem sim c mb then
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
      List.fold_left (fun a c -> if c.dead then a else a +. c.cf.mem_in_use) acc dep.pool)
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
