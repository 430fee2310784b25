module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Workflow = Quilt_apps.Workflow
module Special = Quilt_apps.Special
module Histogram = Quilt_util.Histogram
module Rng = Quilt_util.Rng
module Json = Quilt_util.Json
module Quilt = Quilt_core.Quilt
module Config = Quilt_core.Config
module Deploy = Quilt_core.Deploy
module Plan = Quilt_fault.Plan
module Policy = Quilt_fault.Policy

type arm = Baseline | Cm | Quilt_merged

let arm_name = function Baseline -> "baseline" | Cm -> "cm" | Quilt_merged -> "quilt"
let arms = [ Baseline; Cm; Quilt_merged ]

type traffic =
  | Phases of Loadgen.phase list
  | Open_loop of { rate_rps : float; duration_us : float }

(* One scenario = a workflow, the mix its initial plan is profiled under,
   the quilt config the offline optimizer uses, the (possibly adversarial)
   config the online controller re-optimizes with, the traffic, and the
   fault plan. *)
type spec = {
  sp_workflow : Workflow.t;
  sp_profile_gen : Rng.t -> string;
  sp_offline_cfg : Config.t;
  sp_ctl_quilt_cfg : Config.t;
  sp_ctl_cfg : Controller.config;
  sp_traffic : traffic;
  sp_hop_timeout_us : float option;
  sp_faults : total_us:float -> Plan.t;
}

type bucket = { b_t_s : float; b_p50_ms : float; b_p99_ms : float; b_n : int; b_fails : int }

type outcome = {
  o_scenario : string;
  o_arm : arm;
  o_with_controller : bool;
  o_phased : Loadgen.phased_result;
  o_buckets : bucket list;
  o_events : Controller.event list;
  o_summary : Controller.summary option;
  o_initial_groups : string list list;
  o_final_groups : string list list;
  o_gateway : (string * Policy.stats) option;
  o_faults : (float * string) list;
}

let names = [ "path-shift"; "steady"; "regress"; "late-regress"; "crashy" ]
let chaos_names = [ "crashstorm"; "netchaos"; "coldstorm"; "memspike"; "slowcpu" ]

let post_shift_phase = function
  | "path-shift" | "crashy" -> "b-late"
  | "steady" -> "steady-2"
  | "regress" | "late-regress" -> "heavy"
  | _ -> ""

let offline_cfg ~smoke =
  let profile_duration_us = if smoke then 8_000_000.0 else 20_000_000.0 in
  { Config.default with Config.profile_duration_us }

(* The routed workflow's merge decision is CPU-bound: with a 6.5 ms budget
   per vCPU, entry plus one chain (~10.5 vCPU.ms) fits a 2-vCPU container
   while entry plus both chains (~18) does not — so the solver must pick
   ONE chain to co-locate, and the right one depends on the mix. *)
let routed_cfg ~smoke = { (offline_cfg ~smoke) with Config.cpu_budget_ms = 6.5 }

(* The routed workflow's entry: the fault domain whose size the chaos
   cells probe. *)
let entry_fn = "route-split"

let ctl_cfg ~smoke =
  if smoke then
    {
      Controller.tick_us = 1_000_000.0;
      window_us = 5_000_000.0;
      cooldown_us = 6_000_000.0;
      canary_warmup_us = 4_000_000.0;
      canary_eval_us = 4_000_000.0;
      min_invocations = 25;
    }
  else Controller.default_config

let no_faults ~total_us:_ = Plan.make ~seed:0 []

let phase ~smoke name dur rate gen =
  let dur = if smoke then dur /. 2.5 else dur in
  { Loadgen.ph_name = name; ph_duration_us = dur *. 1e6; ph_rate_rps = rate; ph_gen_req = gen }

(* The routed workflow under a scripted b-chain share: "path-shift" and
   "crashy" flip it, "steady" holds it at one half. *)
let routed_spec ~smoke ?(faults = no_faults) ~profile_share phases =
  let rate = if smoke then 30.0 else 32.0 in
  {
    sp_workflow = Special.routed ();
    sp_profile_gen = Special.routed_req ~b_share:profile_share;
    sp_offline_cfg = routed_cfg ~smoke;
    sp_ctl_quilt_cfg = routed_cfg ~smoke;
    sp_ctl_cfg = ctl_cfg ~smoke;
    sp_traffic =
      Phases
        (List.map
           (fun (name, dur, share) ->
             phase ~smoke name dur rate (Special.routed_req ~b_share:share))
           phases);
    sp_hop_timeout_us = None;
    sp_faults = faults;
  }

(* b-shift is long enough (one window flush + two trigger/canary rounds)
   that the controller converges on the b-optimal grouping before the
   b-late measurement phase, and b-late is a completed flip: with any
   minority share above 1% the p99 measures the cold path's
   idle-respecialization penalty, not the merge decision under test. *)
let routed_shift_spec ~smoke ?faults () =
  routed_spec ~smoke ?faults ~profile_share:0.1
    [ ("a-heavy", 25.0, 0.1); ("b-shift", 35.0, 0.9); ("b-late", 20.0, 1.0) ]

(* A chaos cell: the routed workflow under a steady 30% b-chain mix at
   20 rps, profiled and faulted on the run's seed.  [faults at] lists
   (fraction of the run's total length, fault) pairs; [at f] is the time at
   fraction [f], for faults that carry a deadline or a duration. *)
let chaos_spec ~smoke ~seed ?hop_timeout_us faults =
  let cfg = { (routed_cfg ~smoke) with Config.seed = 1 + seed } in
  {
    sp_workflow = Special.routed ();
    sp_profile_gen = Special.routed_req ~b_share:0.3;
    sp_offline_cfg = cfg;
    sp_ctl_quilt_cfg = cfg;
    sp_ctl_cfg = ctl_cfg ~smoke;
    sp_traffic =
      Open_loop { rate_rps = 20.0; duration_us = (if smoke then 12_000_000.0 else 40_000_000.0) };
    sp_hop_timeout_us = hop_timeout_us;
    sp_faults =
      (fun ~total_us ->
        let at f = total_us *. f in
        Plan.make ~seed (List.map (fun (f, fault) -> { Plan.at_us = at f; fault }) (faults at)));
  }

let spec ?(smoke = false) ?(seed = 0) name =
  let chaos ?hop_timeout_us faults = Ok (chaos_spec ~smoke ~seed ?hop_timeout_us faults) in
  match name with
  | "path-shift" -> Ok (routed_shift_spec ~smoke ())
  | "crashy" ->
      (* Same drift script as path-shift, so the controller re-merges onto
         chain B and the canary passes — leaving the displaced plan as the
         standing watchdog's fallback.  Then the re-merged entry starts
         crash-looping: the failure storm must trip a rollback (the
         watchdog in the common timing; the canary if the storm lands
         while one is still judging). *)
      let faults ~total_us =
        let until_us = total_us +. 5_000_000.0 in
        Plan.make ~seed:1234
          [
            {
              Plan.at_us = 0.8 *. total_us;
              fault = Plan.Crash_storm { fn = entry_fn; every_us = 250_000.0; until_us; count = 4 };
            };
          ]
      in
      Ok (routed_shift_spec ~smoke ~faults ())
  | "steady" ->
      Ok
        (routed_spec ~smoke ~profile_share:0.5
           [ ("steady-1", 25.0, 0.5); ("steady-2", 25.0, 0.5) ])
  | ("regress" | "late-regress") as which ->
      let small rng = Printf.sprintf "{\"num\":%d}" (Rng.int_in rng 1 3) in
      let big rng = Printf.sprintf "{\"num\":%d}" (Rng.int_in rng 8 15) in
      let honest = offline_cfg ~smoke in
      (* The adversarial cost model the controller re-optimizes with:
         guards stripped (every call unconditionally local) and the
         per-container memory overhead wildly under-estimated, so the
         decision admits an unguarded merge whose fan-out OOM-loops the
         container once the fan-out widens. *)
      let adversarial =
        { honest with Config.guard_policy = Config.Never; mem_overhead_mb = -150.0 }
      in
      (* "regress": the heavy phase arrives while the canary is still
         judging the bad switch, so the canary itself catches and reverts
         it.  "late-regress": the light phase outlasts the canary — the bad
         plan passes on traffic it can handle, and only the standing SLO
         watchdog catches the failure storm when the mix turns heavy. *)
      let light_s = if which = "regress" then 15.0 else 45.0 in
      Ok
        {
          sp_workflow = Special.fan_out ~callee_mem_mb:16 ();
          sp_profile_gen = small;
          sp_offline_cfg = honest;
          sp_ctl_quilt_cfg = adversarial;
          sp_ctl_cfg = ctl_cfg ~smoke;
          sp_traffic =
            Phases [ phase ~smoke "light" light_s 20.0 small; phase ~smoke "heavy" 40.0 20.0 big ];
          sp_hop_timeout_us = None;
          sp_faults = no_faults;
        }
  | "crashstorm" ->
      (* The entry deployment crash-loops mid-run. *)
      chaos (fun at ->
          let until_us = at 0.8 in
          [ (0.3, Plan.Crash_storm { fn = entry_fn; every_us = 400_000.0; until_us; count = 4 }) ])
  | "netchaos" ->
      (* Ingress delay and jitter, plus 8% loss on every hop. *)
      chaos ~hop_timeout_us:300_000.0 (fun at ->
          let duration_us = at 0.5 in
          [
            ( 0.3,
              Plan.Net_delay
                {
                  src = "client";
                  dst = entry_fn;
                  delay_us = 3_000.0;
                  jitter_us = 2_000.0;
                  duration_us;
                } );
            (0.3, Plan.Net_drop { src = "*"; dst = "*"; p = 0.08; duration_us });
          ])
  | "coldstorm" ->
      (* The image cache is flushed, then the entry's whole pool crashes
         repeatedly. *)
      chaos (fun at ->
          (0.25, Plan.Image_cache_flush { pull_factor = 6.0; duration_us = at 0.6 })
          :: List.map (fun f -> (f, Plan.Kill_all { fn = entry_fn })) [ 0.35; 0.55; 0.7 ])
  | "memspike" ->
      (* Transient memory pressure on the entry's containers. *)
      chaos (fun _ ->
          List.map
            (fun f -> (f, Plan.Mem_spike { fn = entry_fn; mb = 70.0; duration_us = 2_000_000.0 }))
            [ 0.4; 0.65 ])
  | "slowcpu" ->
      (* The entry deployment is throttled to 35% CPU mid-run. *)
      chaos (fun at ->
          [ (0.3, Plan.Cpu_degrade { fn = entry_fn; factor = 0.35; duration_us = at 0.4 }) ])
  | other ->
      Error
        (Printf.sprintf "unknown scenario %S (known: %s)" other
           (String.concat ", " (names @ chaos_names)))

let policies = [ ("none", Policy.none); ("retry", Policy.default_retry); ("hedged", Policy.hedged) ]

(* Multi-member groups of a quilt plan; none without one. *)
let groups_of = function
  | None -> []
  | Some (plan : Quilt.t) ->
      List.map
        (fun (d : Deploy.merged_deployment) -> List.sort compare d.Deploy.members)
        plan.Quilt.deployments

(* Per-bucket latency histograms fed by [on_sample]; [buckets ()] lists
   them in time order. *)
let timeline ~bucket_us =
  let tbl : (int, Histogram.t * int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  let on_sample ~ts ~latency_us ~ok ~phase:_ =
    let idx = int_of_float (ts /. bucket_us) in
    let hist, n, fails =
      match Hashtbl.find_opt tbl idx with
      | Some b -> b
      | None ->
          let b = (Histogram.create (), ref 0, ref 0) in
          Hashtbl.replace tbl idx b;
          b
    in
    incr n;
    if ok then Histogram.record hist latency_us else incr fails
  in
  let ms f h = if Histogram.count h = 0 then 0.0 else f h /. 1000.0 in
  let buckets () =
    Hashtbl.fold (fun idx (h, n, f) acc -> (idx, h, !n, !f) :: acc) tbl []
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
    |> List.map (fun (idx, h, n, f) ->
           {
             b_t_s = float_of_int idx *. bucket_us /. 1e6;
             b_p50_ms = ms Histogram.median h;
             b_p99_ms = ms (fun h -> Histogram.quantile h 0.99) h;
             b_n = n;
             b_fails = f;
           })
  in
  (on_sample, buckets)

let run ?(smoke = false) ?(seed = 0) ?obs_sample ?(arm = Quilt_merged) ?(policy = "retry")
    ~with_controller name =
  let ( let* ) = Result.bind in
  let* sp = spec ~smoke ~seed name in
  let* gateway_policy =
    Option.to_result
      ~none:(Printf.sprintf "unknown policy %S (known: none, retry, hedged)" policy)
      (List.assoc_opt policy policies)
  in
  let wf = sp.sp_workflow in
  let* plan =
    match arm with
    | Quilt_merged -> (
        let wf_profiled = { wf with Workflow.gen_req = sp.sp_profile_gen } in
        match Quilt.optimize sp.sp_offline_cfg ~workflows:[ wf_profiled ] wf_profiled with
        | Ok plan -> Ok (Some plan)
        | Error e -> Error (Printf.sprintf "initial optimization failed: %s" e))
    | Baseline | Cm when with_controller -> Error "the controller supervises the quilt arm only"
    | Baseline | Cm -> Ok None
  in
  let engine =
    Quilt.fresh_platform ~seed:(42 + seed) ~config:sp.sp_offline_cfg ~workflows:[ wf ] ()
  in
  (match (arm, plan) with
  | Cm, _ -> Deploy.deploy_cm engine sp.sp_offline_cfg wf
  | _, Some plan -> Quilt.apply engine plan
  | _, None -> ());
  (* Let the rolling deploys flip before traffic (and faults) start. *)
  Engine.run_until engine 2_000_000.0;
  Engine.set_hop_timeout engine sp.sp_hop_timeout_us;
  (* In obs mode the engine profiler stays off: the controller reads the
     span recorder instead, which adds no simulated latency. *)
  let obs =
    match (obs_sample, sp.sp_traffic) with
    | Some period, _ ->
        let r = Quilt_obs.Recorder.create ~sample_period:period ~seed () in
        Quilt_obs.Recorder.attach r engine;
        Some r
    | None, Phases _ ->
        Engine.set_profiling engine true;
        None
    | None, Open_loop _ -> None
  in
  let total_us =
    match sp.sp_traffic with
    | Phases phases -> List.fold_left (fun a p -> a +. p.Loadgen.ph_duration_us) 0.0 phases
    | Open_loop { duration_us; _ } -> (duration_us *. 0.1) +. duration_us
  in
  let armed = Plan.arm (sp.sp_faults ~total_us) engine in
  let controller =
    match plan with
    | Some plan when with_controller ->
        let c =
          Controller.create engine ~cfg:sp.sp_ctl_cfg ?obs ~quilt_cfg:sp.sp_ctl_quilt_cfg
            ~workflows:[ wf ] ~plan ()
        in
        Controller.start c ~until:(Engine.now engine +. total_us +. 10_000_000.0);
        Some c
    | _ -> None
  in
  let phased, buckets, gateway =
    match sp.sp_traffic with
    | Phases phases ->
        let on_sample, buckets = timeline ~bucket_us:(if smoke then 2_000_000.0 else 5_000_000.0) in
        let phased =
          Loadgen.run_phased engine ~entry:wf.Workflow.entry ~phases ~on_sample ~seed ()
        in
        (phased, buckets (), None)
    | Open_loop { rate_rps; duration_us } ->
        let gw = Policy.create ~seed engine gateway_policy in
        let overall =
          Loadgen.run_open_loop engine ~entry:wf.Workflow.entry ~gen_req:sp.sp_profile_gen
            ~rate_rps ~duration_us ~seed ~via:(Policy.submit gw) ()
        in
        ({ Loadgen.overall; per_phase = [] }, [], Some (policy, Policy.stats gw))
  in
  let final_plan = match controller with Some c -> Some (Controller.plan c) | None -> plan in
  Ok
    {
      o_scenario = name;
      o_arm = arm;
      o_with_controller = with_controller;
      o_phased = phased;
      o_buckets = buckets;
      o_events = (match controller with Some c -> Controller.events c | None -> []);
      o_summary = Option.map Controller.summary controller;
      o_initial_groups = groups_of plan;
      o_final_groups = groups_of final_plan;
      o_gateway = gateway;
      o_faults = Plan.trace armed;
    }

let run_matrix ?smoke ?seed ?policy names =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc name ->
      List.fold_left
        (fun acc arm ->
          let* done_ = acc in
          let* o = run ?smoke ?seed ?policy ~arm ~with_controller:false name in
          Ok (o :: done_))
        acc arms)
    (Ok []) names
  |> Result.map List.rev

let result_json (r : Loadgen.result) =
  Json.Obj
    [
      ("median_ms", Json.Float (Loadgen.median_ms r));
      ("p99_ms", Json.Float (Loadgen.p99_ms r));
      ("mean_ms", Json.Float (Loadgen.mean_ms r));
      ("successes", Json.int r.Loadgen.successes);
      ("failures", Json.int r.Loadgen.failures);
      ("offered", Json.int r.Loadgen.offered);
      ("throughput_rps", Json.Float r.Loadgen.throughput_rps);
      ("availability", Json.Float (Loadgen.availability r));
    ]

let outcome_json o =
  let overall = o.o_phased.Loadgen.overall in
  let groups gs = Json.List (List.map (fun g -> Json.List (List.map Json.str g)) gs) in
  let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) kvs) in
  Json.Obj
    [
      ("scenario", Json.str o.o_scenario);
      ("arm", Json.str (arm_name o.o_arm));
      ("with_controller", Json.Bool o.o_with_controller);
      ("overall", result_json overall);
      ( "per_phase",
        Json.Obj (List.map (fun (n, r) -> (n, result_json r)) o.o_phased.Loadgen.per_phase) );
      ( "timeline",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 [
                   ("t_s", Json.Float b.b_t_s);
                   ("p50_ms", Json.Float b.b_p50_ms);
                   ("p99_ms", Json.Float b.b_p99_ms);
                   ("n", Json.int b.b_n);
                   ("fails", Json.int b.b_fails);
                 ])
             o.o_buckets) );
      ("events", Json.List (List.map Controller.event_json o.o_events));
      ( "summary",
        match o.o_summary with
        | None -> Json.Null
        | Some s ->
            ints
              [
                ("ticks", s.Controller.s_ticks);
                ("keeps", s.Controller.s_keeps);
                ("suspects", s.Controller.s_suspects);
                ("remerges", s.Controller.s_remerges);
                ("rebaselines", s.Controller.s_rebaselines);
                ("holds", s.Controller.s_holds);
                ("failures", s.Controller.s_failures);
                ("canary_passes", s.Controller.s_canary_passes);
                ("canary_rollbacks", s.Controller.s_rollbacks);
                ("watchdogs", s.Controller.s_watchdogs);
                ("skipped", s.Controller.s_skipped);
              ] );
      ("initial_groups", groups o.o_initial_groups);
      ("final_groups", groups o.o_final_groups);
      ( "gateway",
        match o.o_gateway with
        | None -> Json.Null
        | Some (policy, g) ->
            Json.Obj
              [
                ("policy", Json.str policy);
                ("retries", Json.int g.Policy.retries);
                ("hedges", Json.int g.Policy.hedges);
                ("timeouts", Json.int g.Policy.timeouts);
                ("budget_denied", Json.int g.Policy.budget_denied);
                ("recovered", Json.int g.Policy.recovered);
                ("replayed_chains", Json.int g.Policy.replayed_chains);
                ("wasted_work_ms", Json.Float (g.Policy.wasted_work_us /. 1000.0));
              ] );
      ( "counters",
        let c = overall.Loadgen.counters in
        ints
          [
            ("cold_starts", c.Engine.cold_starts);
            ("oom_kills", c.Engine.oom_kills);
            ("crash_kills", c.Engine.crash_kills);
            ("net_drops", c.Engine.net_drops);
            ("hop_timeouts", c.Engine.hop_timeouts);
          ] );
      ("fault_events", Json.int (List.length o.o_faults));
    ]

let print_outcome o =
  match o.o_gateway with
  | Some (policy, g) ->
      let r = o.o_phased.Loadgen.overall in
      Printf.printf
        "  %-10s %-8s %-6s  avail %5.1f%%  p99 %8.2fms  goodput %6.1f rps  retries %4d  wasted %8.1fms\n"
        o.o_scenario (arm_name o.o_arm) policy
        (100.0 *. Loadgen.availability r)
        (Loadgen.p99_ms r) (Loadgen.goodput_rps r) g.Policy.retries
        (g.Policy.wasted_work_us /. 1000.0)
  | None ->
      Printf.printf "scenario %s (%s controller)\n" o.o_scenario
        (if o.o_with_controller then "with" else "without");
      Printf.printf "  %-10s %8s %8s %8s %6s %6s\n" "phase" "p50(ms)" "p99(ms)" "rps" "ok" "fail";
      List.iter
        (fun (n, (r : Loadgen.result)) ->
          Printf.printf "  %-10s %8.2f %8.2f %8.1f %6d %6d\n" n (Loadgen.median_ms r)
            (Loadgen.p99_ms r) r.Loadgen.throughput_rps r.Loadgen.successes r.Loadgen.failures)
        o.o_phased.Loadgen.per_phase;
      let groups gs =
        String.concat " + " (List.map (fun g -> "{" ^ String.concat "," g ^ "}") gs)
      in
      Printf.printf "  groups: %s -> %s\n" (groups o.o_initial_groups) (groups o.o_final_groups);
      if o.o_with_controller then begin
        Printf.printf "  events:\n";
        List.iter
          (fun (e : Controller.event) ->
            Printf.printf "    [%7.2fs] %-15s %s\n" (e.Controller.ev_ts /. 1e6)
              (Controller.kind_name e.Controller.ev_kind)
              e.Controller.ev_detail)
          o.o_events
      end
