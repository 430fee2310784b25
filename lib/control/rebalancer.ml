module Engine = Quilt_platform.Engine

type config = {
  tick_us : float;
  window_us : float;
  hot_threshold : float;
  slack_threshold : float;
  cooldown_us : float;
  canary : Canary.config;
  warmup_us : float;
  eval_us : float;
}

let default_config =
  {
    tick_us = 2_000_000.0;
    window_us = 6_000_000.0;
    hot_threshold = 0.75;
    slack_threshold = 0.55;
    cooldown_us = 8_000_000.0;
    canary = Canary.default;
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

(* An in-flight migration under canary judgement.  [m_old_dep] is the
   deployment name the service routed to before the move; it is
   decommissioned once the verdict is in (either way — on a revert the
   service has rolled over a second time, superseding it regardless). *)
type migration = {
  m_service : string;
  m_from : int;
  m_to : int;
  m_old_dep : string;
  m_switched : float;
  m_pre : Canary.stats;
}

type t = {
  engine : Engine.t;
  cfg : config;
  mutable state : migration option;
  mutable last_action : float;
  mutable events_rev : event list;
  mutable ticks : int;
  samples : Canary.samples;
  mutable holddown : (string * int) list;  (* reverted (service, target) pairs *)
}

let create engine ?(cfg = default_config) () =
  {
    engine;
    cfg;
    state = None;
    last_action = neg_infinity;
    events_rev = [];
    ticks = 0;
    samples = Canary.samples ();
    holddown = [];
  }

let events t = List.rev t.events_rev

let log t kind detail =
  t.events_rev <-
    { ev_ts = Engine.now t.engine; ev_kind = kind; ev_detail = detail } :: t.events_rev

let stats_between t ~from_ ~to_ = Canary.stats_between t.cfg.canary t.samples ~from_ ~to_

(* Reserved-vCPU utilization per node; the hotspot/slack signal. *)
let utilization (nl : Engine.node_load) =
  nl.Engine.nl_used_vcpus /. Float.max 1e-9 nl.Engine.nl_node.Quilt_place.Topology.vcpus

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

let migrate t ~service ~(spec : Engine.spec) ~from_ ~to_ =
  let now = Engine.now t.engine in
  let old_dep = Engine.route_of t.engine service in
  let pre = stats_between t ~from_:(now -. t.cfg.window_us) ~to_:now in
  ignore (Engine.reassign t.engine ~service ~node:to_);
  Engine.deploy_rolling t.engine spec;
  t.state <-
    Some { m_service = service; m_from = from_; m_to = to_; m_old_dep = old_dep; m_switched = now; m_pre = pre };
  t.last_action <- now;
  log t Migrated (Printf.sprintf "%s: node %d -> node %d" service from_ to_)

let judge t (m : migration) =
  let now = Engine.now t.engine in
  let post = stats_between t ~from_:(m.m_switched +. t.cfg.warmup_us) ~to_:now in
  let settle verdict_log =
    ignore (Engine.decommission t.engine ~deployment:m.m_old_dep);
    t.state <- None;
    t.last_action <- now;
    verdict_log ()
  in
  match Canary.judge t.cfg.canary ~pre:m.m_pre ~post with
  | Canary.Pass ->
      settle (fun () ->
          log t Migration_passed
            (Printf.sprintf "%s on node %d: post p%.0f %.1f ms (pre %.1f ms)" m.m_service
               m.m_to
               (100.0 *. t.cfg.canary.Canary.quantile)
               (post.Canary.tail_us /. 1000.0)
               (m.m_pre.Canary.tail_us /. 1000.0)))
  | Canary.Regress reason ->
      (* Move back through the same rolling path; the reverted pair goes on
         holddown so the next hotspot pass does not retry it. *)
      t.holddown <- (m.m_service, m.m_to) :: t.holddown;
      let bad_dep = Engine.route_of t.engine m.m_service in
      ignore (Engine.reassign t.engine ~service:m.m_service ~node:m.m_from);
      (match Engine.deployment_spec t.engine m.m_service with
      | Some spec -> Engine.deploy_rolling t.engine spec
      | None -> ());
      settle (fun () ->
          ignore (Engine.decommission t.engine ~deployment:bad_dep);
          log t Migration_reverted
            (Printf.sprintf "%s back to node %d: %s" m.m_service m.m_from reason))
  | Canary.Inconclusive why ->
      if now -. m.m_switched > t.cfg.warmup_us +. (3.0 *. t.cfg.eval_us) then
        settle (fun () ->
            log t Migration_passed
              (Printf.sprintf "%s accepted without verdict: %s" m.m_service why))

let tick t =
  t.ticks <- t.ticks + 1;
  Canary.prune t.samples ~before:(Engine.now t.engine -. (3.0 *. t.cfg.window_us));
  let now = Engine.now t.engine in
  match t.state with
  | Some m ->
      if now >= m.m_switched +. t.cfg.warmup_us +. t.cfg.eval_us then judge t m
  | None ->
      let loads = Engine.node_loads t.engine in
      if Array.length loads = 0 || now -. t.last_action < t.cfg.cooldown_us then ()
      else begin
        let hot = ref (-1) and hot_u = ref t.cfg.hot_threshold in
        Array.iteri
          (fun i nl ->
            let u = utilization nl in
            if u > !hot_u then begin
              hot := i;
              hot_u := u
            end)
          loads;
        if !hot < 0 then log t Balanced ""
        else begin
          (* Coolest node below the slack threshold is the target. *)
          let target = ref (-1) and target_u = ref t.cfg.slack_threshold in
          Array.iteri
            (fun i nl ->
              let u = utilization nl in
              if i <> !hot && u < !target_u then begin
                target := i;
                target_u := u
              end)
            loads;
          if !target < 0 then
            log t Skipped (Printf.sprintf "node %d hot (%.0f%%) but no slack target" !hot (100.0 *. !hot_u))
          else begin
            match candidate_on t ~node:!hot ~target:loads.(!target) with
            | None ->
                log t Skipped
                  (Printf.sprintf "node %d hot (%.0f%%) but nothing fits node %d" !hot
                     (100.0 *. !hot_u) !target)
            | Some (service, _) when List.mem (service, !target) t.holddown ->
                log t Held (Printf.sprintf "%s -> node %d previously reverted" service !target)
            | Some (service, spec) -> migrate t ~service ~spec ~from_:!hot ~to_:!target
          end
        end
      end

let start t ~until =
  Canary.supervise t.engine t.samples ~tick_us:t.cfg.tick_us ~until (fun () -> tick t)

let summary t =
  let z =
    {
      s_ticks = t.ticks;
      s_balanced = 0;
      s_migrations = 0;
      s_passes = 0;
      s_reverts = 0;
      s_holds = 0;
      s_skips = 0;
    }
  in
  List.fold_left
    (fun s e ->
      match e.ev_kind with
      | Balanced -> { s with s_balanced = s.s_balanced + 1 }
      | Migrated -> { s with s_migrations = s.s_migrations + 1 }
      | Migration_passed -> { s with s_passes = s.s_passes + 1 }
      | Migration_reverted -> { s with s_reverts = s.s_reverts + 1 }
      | Held -> { s with s_holds = s.s_holds + 1 }
      | Skipped -> { s with s_skips = s.s_skips + 1 })
    z (events t)
