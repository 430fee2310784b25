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

type bucket = { b_t_s : float; b_p50_ms : float; b_p99_ms : float; b_n : int; b_fails : int }

type outcome = {
  o_scenario : string;
  o_with_controller : bool;
  o_phased : Loadgen.phased_result;
  o_buckets : bucket list;
  o_events : Controller.event list;
  o_summary : Controller.summary option;
  o_initial_groups : string list list;
  o_final_groups : string list list;
}

let names = [ "path-shift"; "steady"; "regress"; "late-regress"; "crashy" ]

let post_shift_phase = function
  | "path-shift" | "crashy" -> "b-late"
  | "steady" -> "steady-2"
  | "regress" | "late-regress" -> "heavy"
  | _ -> ""

(* One scenario = a workflow, the mix its initial plan is profiled under,
   the quilt config the offline optimizer uses, the (possibly adversarial)
   config the online controller re-optimizes with, and the phase script. *)
type spec = {
  sp_workflow : Workflow.t;
  sp_profile_gen : Rng.t -> string;
  sp_offline_cfg : Config.t;
  sp_ctl_quilt_cfg : Config.t;
  sp_ctl_cfg : Controller.config;
  sp_phases : Loadgen.phase list;
  sp_arm : Engine.t -> unit;
      (* Fault hook, called once just before traffic starts (the "crashy"
         scenario arms a crash storm here); [ignore] for the rest. *)
}

(* The routed workflow's merge decision is CPU-bound: with a 6.5 ms budget
   per vCPU, entry plus one chain (~10.5 vCPU.ms) fits a 2-vCPU container
   while entry plus both chains (~18) does not — so the solver must pick
   ONE chain to co-locate, and the right one depends on the mix. *)
let routed_cfg ~smoke =
  {
    Config.default with
    Config.cpu_budget_ms = 6.5;
    profile_duration_us = (if smoke then 8_000_000.0 else 20_000_000.0);
  }

let ctl_cfg ~smoke =
  if smoke then
    {
      Controller.default_config with
      Controller.tick_us = 1_000_000.0;
      window_us = 5_000_000.0;
      cooldown_us = 6_000_000.0;
      canary_warmup_us = 4_000_000.0;
      canary_eval_us = 4_000_000.0;
      min_invocations = 25;
    }
  else Controller.default_config

let phase ~smoke name dur rate gen =
  let dur = if smoke then dur /. 2.5 else dur in
  { Loadgen.ph_name = name; ph_duration_us = dur *. 1e6; ph_rate_rps = rate; ph_gen_req = gen }

(* The routed workflow under a scripted b-chain share: "path-shift" and
   "crashy" flip it, "steady" holds it at one half. *)
let routed_spec ~smoke ~profile_share ~phases ~sp_arm =
  let rate = if smoke then 30.0 else 32.0 in
  {
    sp_workflow = Special.routed ();
    sp_profile_gen = Special.routed_req ~b_share:profile_share;
    sp_offline_cfg = routed_cfg ~smoke;
    sp_ctl_quilt_cfg = routed_cfg ~smoke;
    sp_ctl_cfg = ctl_cfg ~smoke;
    sp_phases =
      List.map
        (fun (name, dur, share) -> phase ~smoke name dur rate (Special.routed_req ~b_share:share))
        phases;
    sp_arm;
  }

(* b-shift is long enough (one window flush + two trigger/canary rounds)
   that the controller converges on the b-optimal grouping before the
   b-late measurement phase, and b-late is a completed flip: with any
   minority share above 1% the p99 measures the cold path's
   idle-respecialization penalty, not the merge decision under test. *)
let routed_shift_spec ~smoke ~sp_arm =
  routed_spec ~smoke ~profile_share:0.1 ~sp_arm
    ~phases:[ ("a-heavy", 25.0, 0.1); ("b-shift", 35.0, 0.9); ("b-late", 20.0, 1.0) ]

let spec_of ~smoke = function
  | "path-shift" -> Ok (routed_shift_spec ~smoke ~sp_arm:ignore)
  | "crashy" ->
      (* Same drift script as path-shift, so the controller re-merges onto
         chain B and the canary passes — leaving the displaced plan as the
         standing watchdog's fallback.  Then the re-merged entry starts
         crash-looping: the failure storm must trip a rollback (the
         watchdog in the common timing; the canary if the storm lands
         while one is still judging). *)
      let s d = if smoke then d /. 2.5 else d in
      let total_us = s (25.0 +. 35.0 +. 20.0) *. 1e6 in
      let plan =
        Quilt_fault.Plan.make ~seed:1234
          [
            {
              Quilt_fault.Plan.at_us = 0.8 *. total_us;
              fault =
                Quilt_fault.Plan.Crash_storm
                  {
                    fn = "route-split";
                    every_us = 250_000.0;
                    until_us = total_us +. 5_000_000.0;
                    count = 4;
                  };
            };
          ]
      in
      Ok
        (routed_shift_spec ~smoke
           ~sp_arm:(fun engine -> ignore (Quilt_fault.Plan.arm plan engine)))
  | "steady" ->
      Ok
        (routed_spec ~smoke ~profile_share:0.5 ~sp_arm:ignore
           ~phases:[ ("steady-1", 25.0, 0.5); ("steady-2", 25.0, 0.5) ])
  | ("regress" | "late-regress") as which ->
      let wf = Special.fan_out ~callee_mem_mb:16 () in
      let small rng = Printf.sprintf "{\"num\":%d}" (Rng.int_in rng 1 3) in
      let big rng = Printf.sprintf "{\"num\":%d}" (Rng.int_in rng 8 15) in
      let honest =
        {
          Config.default with
          Config.profile_duration_us = (if smoke then 8_000_000.0 else 20_000_000.0);
        }
      in
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
          sp_workflow = wf;
          sp_profile_gen = small;
          sp_offline_cfg = honest;
          sp_ctl_quilt_cfg = adversarial;
          sp_ctl_cfg = ctl_cfg ~smoke;
          sp_phases =
            [ phase ~smoke "light" light_s 20.0 small; phase ~smoke "heavy" 40.0 20.0 big ];
          sp_arm = ignore;
        }
  | other -> Error (Printf.sprintf "unknown scenario %S (known: %s)" other (String.concat ", " names))

let groups_of (plan : Quilt.t) =
  List.map
    (fun (d : Deploy.merged_deployment) -> List.sort compare d.Deploy.members)
    plan.Quilt.deployments

let run ?(smoke = false) ?(seed = 0) ?obs_sample ~with_controller name =
  match spec_of ~smoke name with
  | Error e -> Error e
  | Ok sp -> (
      let wf = sp.sp_workflow in
      let wf_profiled = { wf with Workflow.gen_req = sp.sp_profile_gen } in
      match Quilt.optimize sp.sp_offline_cfg ~workflows:[ wf_profiled ] wf_profiled with
      | Error e -> Error (Printf.sprintf "initial optimization failed: %s" e)
      | Ok plan ->
          let engine =
            Quilt.fresh_platform ~seed:(42 + seed) ~config:sp.sp_offline_cfg ~workflows:[ wf ] ()
          in
          Quilt.apply engine plan;
          (* Let the rolling deploys flip before traffic starts. *)
          Engine.run_until engine 2_000_000.0;
          (* Both arms pay the profiling overhead, so with/without compare
             controller behaviour, not instrumentation cost.  In obs mode
             the engine profiler stays off: the controller reads the span
             recorder instead, which adds no simulated latency. *)
          let obs =
            match obs_sample with
            | None ->
                Engine.set_profiling engine true;
                None
            | Some period ->
                let r = Quilt_obs.Recorder.create ~sample_period:period ~seed () in
                Quilt_obs.Recorder.attach r engine;
                Some r
          in
          sp.sp_arm engine;
          let total_us =
            List.fold_left (fun a p -> a +. p.Loadgen.ph_duration_us) 0.0 sp.sp_phases
          in
          let controller =
            if not with_controller then None
            else begin
              let c =
                Controller.create engine ~cfg:sp.sp_ctl_cfg ?obs ~quilt_cfg:sp.sp_ctl_quilt_cfg
                  ~workflows:[ wf ] ~plan ()
              in
              Controller.start c ~until:(Engine.now engine +. total_us +. 10_000_000.0);
              Some c
            end
          in
          let bucket_us = if smoke then 2_000_000.0 else 5_000_000.0 in
          let buckets : (int, Histogram.t * int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
          let on_sample ~ts ~latency_us ~ok ~phase:_ =
            let idx = int_of_float (ts /. bucket_us) in
            let hist, n, fails =
              match Hashtbl.find_opt buckets idx with
              | Some b -> b
              | None ->
                  let b = (Histogram.create (), ref 0, ref 0) in
                  Hashtbl.replace buckets idx b;
                  b
            in
            incr n;
            if ok then Histogram.record hist latency_us else incr fails
          in
          let phased =
            Loadgen.run_phased engine ~entry:wf.Workflow.entry ~phases:sp.sp_phases ~on_sample
              ~seed ()
          in
          let bucket_list =
            Hashtbl.fold (fun idx (h, n, f) acc -> (idx, h, !n, !f) :: acc) buckets []
            |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
            |> List.map (fun (idx, h, n, f) ->
                   {
                     b_t_s = float_of_int idx *. bucket_us /. 1e6;
                     b_p50_ms =
                       (if Histogram.count h = 0 then 0.0 else Histogram.median h /. 1000.0);
                     b_p99_ms =
                       (if Histogram.count h = 0 then 0.0 else Histogram.quantile h 0.99 /. 1000.0);
                     b_n = n;
                     b_fails = f;
                   })
          in
          let final_plan =
            match controller with Some c -> Controller.plan c | None -> plan
          in
          Ok
            {
              o_scenario = name;
              o_with_controller = with_controller;
              o_phased = phased;
              o_buckets = bucket_list;
              o_events = (match controller with Some c -> Controller.events c | None -> []);
              o_summary = (match controller with Some c -> Some (Controller.summary c) | None -> None);
              o_initial_groups = groups_of plan;
              o_final_groups = groups_of final_plan;
            })

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
    ]

let outcome_json o =
  Json.Obj
    [
      ("scenario", Json.str o.o_scenario);
      ("with_controller", Json.Bool o.o_with_controller);
      ("overall", result_json o.o_phased.Loadgen.overall);
      ( "per_phase",
        Json.Obj
          (List.map (fun (n, r) -> (n, result_json r)) o.o_phased.Loadgen.per_phase) );
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
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.int v))
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
                 ]) );
      ( "initial_groups",
        Json.List (List.map (fun g -> Json.List (List.map Json.str g)) o.o_initial_groups) );
      ( "final_groups",
        Json.List (List.map (fun g -> Json.List (List.map Json.str g)) o.o_final_groups) );
    ]

let print_outcome o =
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
