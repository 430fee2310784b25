module Engine = Quilt_platform.Engine
module Workflow = Quilt_apps.Workflow
module Drift = Quilt_dag.Drift
module Quilt = Quilt_core.Quilt
module Config = Quilt_core.Config
module Deploy = Quilt_core.Deploy
module Json = Quilt_util.Json

type config = {
  tick_us : float;
  window_us : float;
  cooldown_us : float;
  min_invocations : int;
  canary_warmup_us : float;
  canary_eval_us : float;
}

let hysteresis = 2

let default_config =
  {
    tick_us = 2_000_000.0;
    window_us = 8_000_000.0;
    cooldown_us = 10_000_000.0;
    min_invocations = 40;
    canary_warmup_us = 5_000_000.0;
    canary_eval_us = 6_000_000.0;
  }

type kind =
  | Kept
  | Suspected of int
  | Remerged
  | Rebaselined
  | Held
  | Remerge_failed
  | Canary_passed
  | Canary_rolled_back
  | Watchdog_rolled_back
  | Skipped

type event = { ev_ts : float; ev_kind : kind; ev_detail : string }

type summary = {
  s_ticks : int;
  s_keeps : int;
  s_suspects : int;
  s_remerges : int;
  s_rebaselines : int;
  s_holds : int;
  s_failures : int;
  s_canary_passes : int;
  s_rollbacks : int;
  s_watchdogs : int;
  s_skipped : int;
}

let kind_name = function
  | Kept -> "keep"
  | Suspected _ -> "suspect"
  | Remerged -> "remerge"
  | Rebaselined -> "rebaseline"
  | Held -> "held"
  | Remerge_failed -> "remerge_failed"
  | Canary_passed -> "canary_pass"
  | Canary_rolled_back -> "canary_rollback"
  | Watchdog_rolled_back -> "watchdog_rollback"
  | Skipped -> "skipped"

type t = {
  engine : Engine.t;
  cfg : config;
  loop_cfg : Loop.config;
  quilt_cfg : Config.t;
  workflows : Workflow.t list;
  window : Window.t;
  (* Observability mode: window graphs come from the live profiler over
     this recorder's span stream instead of the engine's ground-truth
     trace store (and the profiler token stays off — production traffic
     does not pay the profiled hop overhead). *)
  obs : Quilt_obs.Recorder.t option;
  mutable loop : string Loop.state;
  mutable current : Quilt.t;
  (* The plan the last switch displaced and the latency window before it:
     a revert (canary or watchdog) goes back to [displaced], and the
     canary judges against [pre]. *)
  mutable displaced : Quilt.t;
  mutable pre : Canary.stats;
  mutable events_rev : event list;
  mutable ticks : int;
  samples : Canary.samples;
}

(* A plan's grouping identity: sorted member lists plus the canonical
   guards of each merged deployment.  Guards matter — the same member set
   deployed with and without α-guards behaves differently, and a canary
   verdict against one must not be applied to the other. *)
let fingerprint (plan : Quilt.t) =
  let dep_fp (d : Deploy.merged_deployment) =
    let members = List.sort compare d.Deploy.members in
    let guards =
      match d.Deploy.spec.Engine.mode with
      | Engine.Merged { guards; _ } ->
          List.map
            (fun ((a, b), g) -> Printf.sprintf "%s>%s:%d" a b g)
            (Quilt_merge.Pipeline.canonical_guards ~members guards)
      | Engine.Plain | Engine.Container_merge _ -> []
    in
    String.concat "," members ^ "{" ^ String.concat "," guards ^ "}"
  in
  String.concat "|" (List.sort compare (List.map dep_fp plan.Quilt.deployments))

let create engine ?(cfg = default_config) ?obs ~quilt_cfg ~workflows ~plan () =
  {
    engine;
    cfg;
    loop_cfg =
      {
        Loop.hysteresis = hysteresis;
        cooldown_us = cfg.cooldown_us;
        noop_cooldown_us = cfg.cooldown_us;
        warmup_us = cfg.canary_warmup_us;
        eval_us = cfg.canary_eval_us;
      };
    quilt_cfg;
    workflows;
    window = Window.create engine ~workflow:plan.Quilt.workflow ~window_us:cfg.window_us;
    obs;
    loop = Loop.init;
    current = plan;
    displaced = plan;
    pre = Canary.stats_of [];
    events_rev = [];
    ticks = 0;
    samples = Canary.samples ();
  }

let plan t = t.current
let events t = List.rev t.events_rev

(* Profile source for the current window: ground-truth trace store by
   default, live-profiler reconstruction in observability mode.  Both
   yield per-invocation resources and sampling-invariant rates/α, so the
   drift comparison against the deployed plan's graph is source-agnostic. *)
let window_graph t =
  match t.obs with
  | None -> Window.graph t.window
  | Some r ->
      let wf = t.current.Quilt.workflow in
      Result.map (Quilt.with_optin wf)
        (Quilt_obs.Profiler.callgraph ~since:(Window.start_of t.window)
           ~code_edges:wf.Workflow.code_edges ~entry:wf.Workflow.entry r)

let window_invocations t =
  match t.obs with
  | None -> Window.invocations_in_window t.window
  | Some r ->
      (* Scale the sampled count back up so the min-invocations gate keeps
         its meaning under 1/N head sampling. *)
      Quilt_obs.Profiler.invocations ~since:(Window.start_of t.window)
        ~entry:t.current.Quilt.workflow.Workflow.entry r
      * Quilt_obs.Recorder.sample_period r

let log t kind detail =
  t.events_rev <- { ev_ts = Engine.now t.engine; ev_kind = kind; ev_detail = detail } :: t.events_rev

let stats_between t ~from_ ~to_ = Canary.stats_between t.samples ~from_ ~to_

(* One observation through the loop; [apply] carries out each action. *)
let feed t ~now obs apply =
  let st, actions = Loop.step t.loop_cfg t.loop ~now obs in
  t.loop <- st;
  List.iter apply actions

let one_line s = String.concat "; " (String.split_on_char '\n' s)

(* Revert the last switch: merged entries of the bad plan go back to their
   baseline containers, then the displaced plan's merged groups are rolled
   out again (§5.5 both ways). *)
let revert t ~now kind detail =
  Quilt.rollback t.engine t.quilt_cfg t.current;
  Quilt.apply t.engine t.displaced;
  t.current <- t.displaced;
  Window.set_floor t.window now;
  log t kind detail

(* The drift trigger: re-decide on the window graph and answer the loop's
   proposal with the new plan's fingerprint. *)
let propose t ~now wg report =
  match Quilt.optimize ~graph:wg t.quilt_cfg ~workflows:t.workflows t.current.Quilt.workflow with
  | Error e -> feed t ~now Loop.Unsolved (fun _ -> log t Remerge_failed e)
  | Ok proposal ->
      let from = fingerprint t.current and to_ = fingerprint proposal in
      feed t ~now (Loop.Proposed { from; to_ }) (function
        | Loop.Rebaseline ->
            (* Same grouping under the new profile: adopt the window graph
               as the comparison baseline so steady drift stops ringing. *)
            t.current <- proposal;
            log t Rebaselined (one_line (Drift.describe report))
        | Loop.Hold _ ->
            t.current <- { t.current with Quilt.callgraph = proposal.Quilt.callgraph };
            log t Held (Printf.sprintf "canary previously rejected [%s]" to_)
        | Loop.Switch _ ->
            t.pre <- stats_between t ~from_:(now -. t.cfg.window_us) ~to_:now;
            t.displaced <- t.current;
            Quilt.apply t.engine proposal;
            t.current <- proposal;
            Window.set_floor t.window now;
            log t Remerged
              (Printf.sprintf "%s => %s | %s" from to_ (one_line (Drift.describe report)))
        | _ -> ())

(* Standing SLO watchdog.  The canary only guards the switch transient: a
   plan that is fine under the traffic it was canaried against but
   catastrophic under a later mix (an unguarded merge that OOM-loops once
   the fan-out widens) sails through and then burns.  While the loop still
   knows the plan the last switch displaced, a failure rate over the last
   window past the canary's tolerance trips it: [Some] of that window. *)
let watchdog t ~now =
  if t.loop.Loop.fallback = None then None
  else
    let recent = stats_between t ~from_:(now -. t.cfg.window_us) ~to_:now in
    if
      recent.Canary.n >= Canary.min_samples
      && recent.Canary.fail_rate > Canary.max_fail_delta
    then Some recent
    else None

let tick t =
  t.ticks <- t.ticks + 1;
  Window.advance t.window;
  (* Keep enough history for a canary's pre-window plus slack. *)
  Canary.prune t.samples ~before:(Engine.now t.engine -. (3.0 *. t.cfg.window_us));
  let now = Engine.now t.engine in
  match t.loop.Loop.phase with
  | Loop.Flight { switched; _ } ->
      let post = stats_between t ~from_:(switched +. t.cfg.canary_warmup_us) ~to_:now in
      let verdict = Canary.judge ~pre:t.pre ~post in
      let detail =
        match verdict with
        | Canary.Pass ->
            Printf.sprintf "post p%.0f %.1f ms (pre %.1f ms), failures %.1f%%"
              (100.0 *. Canary.quantile) (post.Canary.tail_us /. 1000.0)
              (t.pre.Canary.tail_us /. 1000.0)
              (100.0 *. post.Canary.fail_rate)
        | Canary.Regress reason -> reason
        | Canary.Inconclusive why ->
            (* Traffic too thin to judge: the loop keeps canarying, and
               accepts the switch once three evaluation windows passed. *)
            "accepted without verdict: " ^ why
      in
      feed t ~now (Loop.Verdict verdict) (function
        | Loop.Revert _ -> revert t ~now Canary_rolled_back detail
        | Loop.Pass -> log t Canary_passed detail
        | _ -> ())
  | Loop.Stable | Loop.Proposing -> (
      match watchdog t ~now with
      | Some recent ->
          feed t ~now Loop.Trip (fun _ ->
              revert t ~now Watchdog_rolled_back
                (Printf.sprintf "failure rate %.1f%% over last window (tolerance %.1f%%)"
                   (100.0 *. recent.Canary.fail_rate)
                   (100.0 *. Canary.max_fail_delta)))
      | None -> (
          let n = window_invocations t in
          if n < t.cfg.min_invocations then
            feed t ~now Loop.Thin (fun _ ->
                log t Skipped
                  (Printf.sprintf "%d invocations in window (< %d)" n t.cfg.min_invocations))
          else
            match window_graph t with
            | Error e -> feed t ~now Loop.Thin (fun _ -> log t Skipped e)
            | Ok wg ->
                let report = Drift.detect t.current.Quilt.callgraph wg in
                feed t ~now
                  (if Drift.drifted report then Loop.Drifted else Loop.Quiet)
                  (function
                    | Loop.Keep -> log t Kept "no drift"
                    | Loop.Suspect k -> log t (Suspected k) (one_line (Drift.describe report))
                    | Loop.Propose -> propose t ~now wg report
                    | _ -> ())))

let start t ~until =
  (* Observability mode profiles from the recorder's spans: the engine's
     ground-truth profiler (and its per-hop latency overhead) stays off. *)
  (match t.obs with None -> Engine.set_profiling t.engine true | Some _ -> ());
  Canary.supervise t.engine ~entry:t.current.Quilt.workflow.Workflow.entry t.samples
    ~tick_us:t.cfg.tick_us ~until (fun () -> tick t)

let summary t =
  let count p = List.length (List.filter (fun e -> p e.ev_kind) t.events_rev) in
  {
    s_ticks = t.ticks;
    s_keeps = count (( = ) Kept);
    s_suspects = count (function Suspected _ -> true | _ -> false);
    s_remerges = count (( = ) Remerged);
    s_rebaselines = count (( = ) Rebaselined);
    s_holds = count (( = ) Held);
    s_failures = count (( = ) Remerge_failed);
    s_canary_passes = count (( = ) Canary_passed);
    s_rollbacks = count (( = ) Canary_rolled_back);
    s_watchdogs = count (( = ) Watchdog_rolled_back);
    s_skipped = count (( = ) Skipped);
  }

let event_json e =
  Json.Obj
    [
      ("t_s", Json.Float (e.ev_ts /. 1e6));
      ("kind", Json.str (kind_name e.ev_kind));
      ("detail", Json.str e.ev_detail);
    ]
