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
  threshold : float;
  hysteresis : int;
  cooldown_us : float;
  min_invocations : int;
  canary : Canary.config;
  canary_warmup_us : float;
  canary_eval_us : float;
}

let default_config =
  {
    tick_us = 2_000_000.0;
    window_us = 8_000_000.0;
    threshold = 0.3;
    hysteresis = 2;
    cooldown_us = 10_000_000.0;
    min_invocations = 40;
    canary = Canary.default;
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

type phase_state =
  | Stable
  | Canarying of { prev : Quilt.t; switched : float; pre : Canary.stats }

type t = {
  engine : Engine.t;
  cfg : config;
  quilt_cfg : Config.t;
  workflows : Workflow.t list;
  window : Window.t;
  detector : Detector.t;
  (* Observability mode: window graphs come from the live profiler over
     this recorder's span stream instead of the engine's ground-truth
     trace store (and the profiler token stays off — production traffic
     does not pay the profiled hop overhead). *)
  obs : Quilt_obs.Recorder.t option;
  mutable current : Quilt.t;
  mutable state : phase_state;
  mutable events_rev : event list;
  mutable ticks : int;
  samples : Canary.samples;
  mutable holddown : string list;
  (* The plan displaced by the most recent switch, kept even after the
     canary passes: a regression that only materializes once the workload
     shifts further (the canary window saw none of it) is caught by the
     standing watchdog, which needs somewhere safe to go back to. *)
  mutable fallback : Quilt.t option;
}

(* A plan's grouping identity: sorted member lists plus the guard budget of
   every internal edge.  Guards matter — the same member set deployed with
   and without α-guards behaves differently, and a canary verdict against
   one must not be applied to the other. *)
let fingerprint (plan : Quilt.t) =
  let dep_fp (d : Deploy.merged_deployment) =
    let members = List.sort compare d.Deploy.members in
    let guards =
      match d.Deploy.spec.Engine.mode with
      | Engine.Merged { guard; _ } ->
          List.concat_map
            (fun a ->
              List.filter_map
                (fun b ->
                  if a = b then None
                  else
                    match guard ~caller:a ~callee:b with
                    | Some g -> Some (Printf.sprintf "%s>%s:%d" a b g)
                    | None -> None)
                members)
            members
      | Engine.Plain | Engine.Container_merge _ -> []
    in
    String.concat "," members ^ "{" ^ String.concat "," guards ^ "}"
  in
  String.concat "|" (List.sort compare (List.map dep_fp plan.Quilt.deployments))

let create engine ?(cfg = default_config) ?obs ~quilt_cfg ~workflows ~plan () =
  let window =
    Window.create engine ~workflow:plan.Quilt.workflow ~window_us:cfg.window_us ()
  in
  let detector =
    Detector.create ~threshold:cfg.threshold ~hysteresis:cfg.hysteresis
      ~cooldown_us:cfg.cooldown_us ()
  in
  {
    engine;
    cfg;
    quilt_cfg;
    workflows;
    window;
    detector;
    obs;
    current = plan;
    state = Stable;
    events_rev = [];
    ticks = 0;
    samples = Canary.samples ();
    holddown = [];
    fallback = None;
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
  | Some r -> (
      let wf = t.current.Quilt.workflow in
      match
        Quilt_obs.Profiler.callgraph ~since:(Window.start_of t.window)
          ~code_edges:wf.Workflow.code_edges ~entry:wf.Workflow.entry r
      with
      | Error e -> Error e
      | Ok g -> Ok (Quilt.with_optin wf g))

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

let stats_between t ~from_ ~to_ = Canary.stats_between t.cfg.canary t.samples ~from_ ~to_

(* Revert a canaried switch: merged entries of the bad plan go back to their
   baseline containers, then the previous plan's merged groups are rolled
   out again (§5.5 both ways). *)
let revert t ~(bad : Quilt.t) ~(prev : Quilt.t) =
  Quilt.rollback t.engine t.quilt_cfg bad;
  Quilt.apply t.engine prev;
  t.current <- prev

let judge_canary t ~prev ~switched ~pre =
  let now = Engine.now t.engine in
  let post = stats_between t ~from_:(switched +. t.cfg.canary_warmup_us) ~to_:now in
  match Canary.judge t.cfg.canary ~pre ~post with
  | Canary.Pass ->
      t.state <- Stable;
      Detector.note_action t.detector ~now;
      log t Canary_passed
        (Printf.sprintf "post p%.0f %.1f ms (pre %.1f ms), failures %.1f%%"
           (100.0 *. t.cfg.canary.Canary.quantile) (post.Canary.tail_us /. 1000.0)
           (pre.Canary.tail_us /. 1000.0)
           (100.0 *. post.Canary.fail_rate))
  | Canary.Regress reason ->
      let bad = t.current in
      let fp = fingerprint bad in
      if not (List.mem fp t.holddown) then t.holddown <- fp :: t.holddown;
      revert t ~bad ~prev;
      t.fallback <- None;
      t.state <- Stable;
      Detector.note_action t.detector ~now;
      Window.set_floor t.window now;
      log t Canary_rolled_back reason
  | Canary.Inconclusive why ->
      (* Traffic too thin to judge within the evaluation window: keep
         canarying, but give up (accept the switch) once three evaluation
         windows have elapsed without a verdict. *)
      if now -. switched > t.cfg.canary_warmup_us +. (3.0 *. t.cfg.canary_eval_us) then begin
        t.state <- Stable;
        Detector.note_action t.detector ~now;
        log t Canary_passed (Printf.sprintf "accepted without verdict: %s" why)
      end

let attempt_remerge t report =
  let now = Engine.now t.engine in
  let wf = t.current.Quilt.workflow in
  match window_graph t with
  | Error e ->
      Detector.note_action t.detector ~now;
      log t Remerge_failed (Printf.sprintf "window graph: %s" e)
  | Ok wg -> (
      match Quilt.optimize ~graph:wg t.quilt_cfg ~workflows:t.workflows wf with
      | Error e ->
          Detector.note_action t.detector ~now;
          log t Remerge_failed e
      | Ok proposal ->
          let fp_now = fingerprint t.current and fp_new = fingerprint proposal in
          if fp_new = fp_now then begin
            (* Same grouping under the new profile: adopt the window graph
               as the comparison baseline so steady drift stops ringing. *)
            t.current <- proposal;
            Detector.note_action t.detector ~now;
            log t Rebaselined (Drift.describe report)
          end
          else if List.mem fp_new t.holddown then begin
            t.current <- { t.current with Quilt.callgraph = proposal.Quilt.callgraph };
            Detector.note_action t.detector ~now;
            log t Held (Printf.sprintf "canary previously rejected [%s]" fp_new)
          end
          else begin
            let pre = stats_between t ~from_:(now -. t.cfg.window_us) ~to_:now in
            let prev = t.current in
            Quilt.apply t.engine proposal;
            t.current <- proposal;
            t.fallback <- Some prev;
            t.state <- Canarying { prev; switched = now; pre };
            Detector.note_action t.detector ~now;
            Window.set_floor t.window now;
            log t Remerged
              (Printf.sprintf "%s => %s | %s" fp_now fp_new
                 (String.concat "; " (String.split_on_char '\n' (Drift.describe report))))
          end)

(* Standing SLO watchdog.  The canary only guards the switch transient: a
   plan that is fine under the traffic it was canaried against but
   catastrophic under a later mix (an unguarded merge that OOM-loops once
   the fan-out widens) sails through and then burns.  If the stable-state
   failure rate over the last window blows past the canary's tolerance and
   we still know the plan the last switch displaced, go back to it and
   hold the bad grouping down. *)
let watchdog t ~now =
  match t.fallback with
  | None -> false
  | Some prev when fingerprint prev = fingerprint t.current -> false
  | Some prev ->
      let recent = stats_between t ~from_:(now -. t.cfg.window_us) ~to_:now in
      if
        recent.Canary.n >= t.cfg.canary.Canary.min_samples
        && recent.Canary.fail_rate > t.cfg.canary.Canary.max_fail_delta
      then begin
        let bad = t.current in
        let fp = fingerprint bad in
        if not (List.mem fp t.holddown) then t.holddown <- fp :: t.holddown;
        revert t ~bad ~prev;
        t.fallback <- None;
        Detector.note_action t.detector ~now;
        Window.set_floor t.window now;
        log t Watchdog_rolled_back
          (Printf.sprintf "failure rate %.1f%% over last window (tolerance %.1f%%)"
             (100.0 *. recent.Canary.fail_rate)
             (100.0 *. t.cfg.canary.Canary.max_fail_delta));
        true
      end
      else false

let tick t =
  t.ticks <- t.ticks + 1;
  Window.advance t.window;
  (* Keep enough history for a canary's pre-window plus slack. *)
  Canary.prune t.samples ~before:(Engine.now t.engine -. (3.0 *. t.cfg.window_us));
  let now = Engine.now t.engine in
  match t.state with
  | Canarying { prev; switched; pre } ->
      if now >= switched +. t.cfg.canary_warmup_us +. t.cfg.canary_eval_us then
        judge_canary t ~prev ~switched ~pre
  | Stable when watchdog t ~now -> ()
  | Stable -> (
      let n = window_invocations t in
      if n < t.cfg.min_invocations then
        log t Skipped (Printf.sprintf "%d invocations in window (< %d)" n t.cfg.min_invocations)
      else
        match window_graph t with
        | Error e -> log t Skipped e
        | Ok wg -> (
            let report = Drift.detect ~threshold:t.cfg.threshold t.current.Quilt.callgraph wg in
            match Detector.observe t.detector ~now report with
            | Detector.No_drift -> log t Kept "no drift"
            | Detector.Cooling -> ()
            | Detector.Suspect k ->
                log t (Suspected k)
                  (String.concat "; " (String.split_on_char '\n' (Drift.describe report)))
            | Detector.Trigger -> attempt_remerge t report))

let start t ~until =
  (* Observability mode profiles from the recorder's spans: the engine's
     ground-truth profiler (and its per-hop latency overhead) stays off. *)
  (match t.obs with None -> Engine.set_profiling t.engine true | Some _ -> ());
  Canary.supervise t.engine ~entry:t.current.Quilt.workflow.Workflow.entry t.samples
    ~tick_us:t.cfg.tick_us ~until (fun () -> tick t)

let summary t =
  let z =
    {
      s_ticks = t.ticks;
      s_keeps = 0;
      s_suspects = 0;
      s_remerges = 0;
      s_rebaselines = 0;
      s_holds = 0;
      s_failures = 0;
      s_canary_passes = 0;
      s_rollbacks = 0;
      s_watchdogs = 0;
      s_skipped = 0;
    }
  in
  List.fold_left
    (fun s e ->
      match e.ev_kind with
      | Kept -> { s with s_keeps = s.s_keeps + 1 }
      | Suspected _ -> { s with s_suspects = s.s_suspects + 1 }
      | Remerged -> { s with s_remerges = s.s_remerges + 1 }
      | Rebaselined -> { s with s_rebaselines = s.s_rebaselines + 1 }
      | Held -> { s with s_holds = s.s_holds + 1 }
      | Remerge_failed -> { s with s_failures = s.s_failures + 1 }
      | Canary_passed -> { s with s_canary_passes = s.s_canary_passes + 1 }
      | Canary_rolled_back -> { s with s_rollbacks = s.s_rollbacks + 1 }
      | Watchdog_rolled_back -> { s with s_watchdogs = s.s_watchdogs + 1 }
      | Skipped -> { s with s_skipped = s.s_skipped + 1 })
    z (events t)

let event_json e =
  Json.Obj
    [
      ("t_s", Json.Float (e.ev_ts /. 1e6));
      ("kind", Json.str (kind_name e.ev_kind));
      ("detail", Json.str e.ev_detail);
    ]
