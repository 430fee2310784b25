module Engine = Quilt_platform.Engine

let tick_us = 2_000_000.0

(* Pre/post latency window fed to the canary. *)
let window_us = 6_000_000.0

(* A node is a hotspot above this fraction of its reserved vCPUs; a
   migration target must sit below the slack fraction. *)
let hot_threshold = 0.75
let slack_threshold = 0.55

let loop_config =
  {
    Loop.hysteresis = 1;
    cooldown_us = 8_000_000.0;
    noop_cooldown_us = 0.0;
    warmup_us = 4_000_000.0;
    eval_us = 6_000_000.0;
  }

type kind =
  | Balanced
  | Migrated
  | Migration_passed
  | Migration_reverted
  | Held
  | Skipped

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

let kind_name = function
  | Balanced -> "balanced"
  | Migrated -> "migrate"
  | Migration_passed -> "migration_pass"
  | Migration_reverted -> "migration_revert"
  | Held -> "held"
  | Skipped -> "skipped"

type t = {
  engine : Engine.t;
  mutable loop : (string * int) Loop.state;
  mutable old_dep : string;  (* routed before the move in flight *)
  mutable pre : Canary.stats;  (* latency window before that move *)
  mutable retiring : (string * string) list;  (* see [retire] *)
  mutable events_rev : event list;
  mutable ticks : int;
  samples : Canary.samples;
}

let create engine =
  {
    engine;
    loop = Loop.init;
    old_dep = "";
    pre = Canary.stats_of Canary.default [];
    retiring = [];
    events_rev = [];
    ticks = 0;
    samples = Canary.samples ();
  }

let events t = List.rev t.events_rev

let log t kind detail =
  t.events_rev <-
    { ev_ts = Engine.now t.engine; ev_kind = kind; ev_detail = detail } :: t.events_rev

let stats_between t ~from_ ~to_ = Canary.stats_between Canary.default t.samples ~from_ ~to_

let feed t ~now obs apply =
  let st, actions = Loop.step loop_config t.loop ~now obs in
  t.loop <- st;
  List.iter apply actions

(* Queue superseded versions for decommissioning, and decommission every
   queued one its service no longer routes to.  A rolling move back keeps
   serving from the version it replaces until the new pod is ready:
   killing that version early fails its requests and lets the next one
   cold-start a zombie container on it.  Every tick retries the queue. *)
let retire t superseded =
  t.retiring <-
    List.filter
      (fun (service, dep) ->
        Engine.route_of t.engine service = dep
        || (ignore (Engine.decommission t.engine ~deployment:dep);
            false))
      (t.retiring @ superseded)

(* Reserved-vCPU utilization per node; the hotspot/slack signal. *)
let utilization (nl : Engine.node_load) =
  nl.Engine.nl_used_vcpus /. Float.max 1e-9 nl.Engine.nl_node.Quilt_place.Topology.vcpus

(* The node whose utilization beats [bound] and every node before it under
   [cmp] (the first on ties), skipping [except]. *)
let extreme loads ~cmp ~bound ?(except = -1) () =
  let best = ref (-1) and best_u = ref bound in
  Array.iteri
    (fun i nl ->
      let u = utilization nl in
      if i <> except && cmp u !best_u then begin
        best := i;
        best_u := u
      end)
    loads;
  if !best < 0 then None else Some (!best, !best_u)

(* The cheapest live deployment on [node] that fits the target's remaining
   capacity: smallest per-container reservation first (ties by name), so a
   migration moves as little load as possible. *)
let candidate_on t ~node ~(target : Engine.node_load) =
  let tn = target.Engine.nl_node in
  let free_vcpus = tn.Quilt_place.Topology.vcpus -. target.Engine.nl_used_vcpus in
  let free_mem = tn.Quilt_place.Topology.mem_mb -. target.Engine.nl_used_mem_mb in
  Engine.node_assignments t.engine
  |> List.filter_map (fun (service, n) ->
         if n <> node then None
         else
           match Engine.deployment_spec t.engine service with
           | None -> None
           | Some spec ->
               let pool = Engine.pool_size t.engine (Engine.route_of t.engine service) in
               if pool = 0 then None  (* nothing running: nothing to move *)
               else if spec.Engine.vcpus > free_vcpus || spec.Engine.mem_limit_mb > free_mem
               then None
               else Some (spec.Engine.vcpus, service, spec))
  |> List.sort compare
  |> function
  | [] -> None
  | (_, service, spec) :: _ -> Some (service, spec)

(* The hotspot trigger: pick the coolest node below the slack threshold as
   the target and the hot node's cheapest deployment that fits it, and
   answer the loop's proposal with the (service, node) move. *)
let propose t ~now loads ~hot ~hot_u =
  let skip detail = feed t ~now Loop.Unsolved (fun _ -> log t Skipped detail) in
  match extreme loads ~cmp:( < ) ~bound:slack_threshold ~except:hot () with
  | None -> skip (Printf.sprintf "node %d hot (%.0f%%) but no slack target" hot (100.0 *. hot_u))
  | Some (target, _) -> (
      match candidate_on t ~node:hot ~target:loads.(target) with
      | None ->
          skip
            (Printf.sprintf "node %d hot (%.0f%%) but nothing fits node %d" hot (100.0 *. hot_u)
               target)
      | Some (service, spec) ->
          feed t ~now
            (Loop.Proposed { from = (service, hot); to_ = (service, target) })
            (function
              | Loop.Hold _ ->
                  log t Held (Printf.sprintf "%s -> node %d previously reverted" service target)
              | Loop.Switch _ ->
                  t.old_dep <- Engine.route_of t.engine service;
                  t.pre <- stats_between t ~from_:(now -. window_us) ~to_:now;
                  ignore (Engine.reassign t.engine ~service ~node:target);
                  Engine.deploy_rolling t.engine spec;
                  log t Migrated (Printf.sprintf "%s: node %d -> node %d" service hot target)
              | _ -> ()))

let tick t =
  t.ticks <- t.ticks + 1;
  Canary.prune t.samples ~before:(Engine.now t.engine -. (3.0 *. window_us));
  let now = Engine.now t.engine in
  retire t [];
  match t.loop.Loop.phase with
  | Loop.Flight { from = service, from_; to_ = _, to_; switched } ->
      let post = stats_between t ~from_:(switched +. loop_config.Loop.warmup_us) ~to_:now in
      let verdict = Canary.judge Canary.default ~pre:t.pre ~post in
      let detail =
        match verdict with
        | Canary.Pass ->
            Printf.sprintf "%s on node %d: post p%.0f %.1f ms (pre %.1f ms)" service to_
              (100.0 *. Canary.default.Canary.quantile)
              (post.Canary.tail_us /. 1000.0)
              (t.pre.Canary.tail_us /. 1000.0)
        | Canary.Regress reason -> Printf.sprintf "%s back to node %d: %s" service from_ reason
        | Canary.Inconclusive why -> Printf.sprintf "%s accepted without verdict: %s" service why
      in
      (* Either way the version routed before the move is superseded: on a
         revert the service rolls over a second time, through the same
         rolling path, and the version it leaves is retired too. *)
      feed t ~now (Loop.Verdict verdict) (function
        | Loop.Revert _ ->
            let bad_dep = Engine.route_of t.engine service in
            ignore (Engine.reassign t.engine ~service ~node:from_);
            (match Engine.deployment_spec t.engine service with
            | Some spec -> Engine.deploy_rolling t.engine spec
            | None -> ());
            retire t [ (service, t.old_dep); (service, bad_dep) ];
            log t Migration_reverted detail
        | Loop.Pass ->
            retire t [ (service, t.old_dep) ];
            log t Migration_passed detail
        | _ -> ())
  | Loop.Stable | Loop.Proposing -> (
      let loads = Engine.node_loads t.engine in
      if Array.length loads > 0 then
        match extreme loads ~cmp:( > ) ~bound:hot_threshold () with
        | None -> feed t ~now Loop.Quiet (fun _ -> log t Balanced "")
        | Some (hot, hot_u) ->
            feed t ~now Loop.Drifted (function
              | Loop.Propose -> propose t ~now loads ~hot ~hot_u
              | _ -> ()))

let start t ~until =
  Canary.supervise t.engine t.samples ~tick_us ~until (fun () -> tick t)

let summary t =
  let count k = List.length (List.filter (fun e -> e.ev_kind = k) t.events_rev) in
  {
    s_ticks = t.ticks;
    s_balanced = count Balanced;
    s_migrations = count Migrated;
    s_passes = count Migration_passed;
    s_reverts = count Migration_reverted;
    s_holds = count Held;
    s_skips = count Skipped;
  }
