(* The online control plane: trace eviction vs windowed graphs, drift
   detection, the control loop's hysteresis and cooldown, canary judgement, and
   end-to-end smoke runs of the adaptive scenarios. *)

module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Trace = Quilt_tracing.Trace
module Builder = Quilt_tracing.Builder
module Callgraph = Quilt_dag.Callgraph
module Drift = Quilt_dag.Drift
module Gen = Quilt_dag.Gen
module Rng = Quilt_util.Rng
module Workflow = Quilt_apps.Workflow
module Special = Quilt_apps.Special
module Quilt = Quilt_core.Quilt
module Loop = Quilt_control.Loop
module Canary = Quilt_control.Canary
module Controller = Quilt_control.Controller
module Scenario = Quilt_control.Scenario

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* ---- eviction vs windowed call graphs ---- *)

(* A graph summary that ignores node-id numbering (eviction must not change
   what the builder sees, but ids depend on discovery order). *)
let graph_summary (g : Callgraph.t) =
  let name i = (Callgraph.node g i).Callgraph.name in
  let nodes =
    Array.to_list g.Callgraph.nodes
    |> List.map (fun (n : Callgraph.node) -> (n.Callgraph.name, n.Callgraph.cpu, n.Callgraph.mem_mb))
    |> List.sort compare
  in
  let edges =
    List.map
      (fun (e : Callgraph.edge) -> (name e.Callgraph.src, name e.Callgraph.dst, e.Callgraph.weight))
      g.Callgraph.edges
    |> List.sort compare
  in
  (g.Callgraph.invocations, nodes, edges)

let test_evict_preserves_windowed_graph () =
  let wf = Special.routed () in
  let engine = Quilt.fresh_platform ~seed:7 ~workflows:[ wf ] () in
  Engine.set_profiling engine true;
  let t0 = Engine.now engine in
  let _ =
    Loadgen.run_open_loop engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req
      ~rate_rps:25.0 ~duration_us:12_000_000.0 ~warmup_us:0.0 ()
  in
  let st = Engine.tracing engine in
  (* The drain grace runs the clock past the traffic, so anchor the window
     inside the traffic interval: its second half. *)
  let window_start = t0 +. 6_000_000.0 in
  let build () =
    match Builder.build st ~entry:wf.Workflow.entry ~window_start () with
    | Ok g -> graph_summary (Builder.known_calls ~code_edges:wf.Workflow.code_edges g)
    | Error e -> Alcotest.fail e
  in
  let before = build () in
  let spans_before = Trace.span_count st in
  Trace.evict_before st window_start;
  let after = build () in
  checkb "eviction dropped spans" true (Trace.span_count st < spans_before);
  let n_b, nodes_b, edges_b = before and n_a, nodes_a, edges_a = after in
  check Alcotest.int "same N" n_b n_a;
  checkb "same nodes" true (nodes_b = nodes_a);
  checkb "same edges" true (edges_b = edges_a)

(* ---- drift detection ---- *)

let mk_graph ?(invocations = 100) ~nodes ~edges () =
  let node_arr =
    Array.of_list
      (List.mapi
         (fun id (name, cpu, mem) ->
           { Callgraph.id; name; mem_mb = mem; cpu; mergeable = true })
         nodes)
  in
  let edges =
    List.map
      (fun (src, dst, weight, kind) -> { Callgraph.src; dst; weight; kind })
      edges
  in
  Callgraph.make ~nodes:node_arr ~edges ~root:0 ~invocations

let chain ~wa ~wb =
  mk_graph
    ~nodes:[ ("e", 2.0, 8.0); ("a", 3.0, 16.0); ("b", 3.0, 16.0) ]
    ~edges:[ (0, 1, wa, Callgraph.Sync); (0, 2, wb, Callgraph.Sync) ]
    ()

let test_drift_rate_catches_mix_flip () =
  (* 90/10 -> 10/90: α = ⌈w/N⌉ = 1 on every edge in both graphs, so only
     the w/N rate comparison can see the flip. *)
  let old_g = chain ~wa:90 ~wb:10 and new_g = chain ~wa:10 ~wb:90 in
  let r = Drift.detect old_g new_g in
  checkb "drifted" true (Drift.drifted r);
  check Alcotest.int "no alpha shifts" 0 (List.length r.Drift.alpha_shifts);
  check Alcotest.int "two rate shifts" 2 (List.length r.Drift.rate_shifts);
  checkb "no topology change" false (Drift.topology_changed r)

let test_drift_identical_is_quiet () =
  let g = chain ~wa:60 ~wb:40 in
  let r = Drift.detect g g in
  checkb "no drift" false (Drift.drifted r);
  check Alcotest.string "describe" "no drift" (Drift.describe r)

let test_drift_topology_and_resources () =
  let old_g = chain ~wa:50 ~wb:50 in
  let new_g =
    mk_graph
      ~nodes:[ ("e", 2.0, 8.0); ("a", 9.0, 16.0) ]
      ~edges:[ (0, 1, 50, Callgraph.Sync) ]
      ()
  in
  let r = Drift.detect old_g new_g in
  checkb "vertex removal seen" true (List.mem "b" r.Drift.removed_nodes);
  checkb "edge removal seen" true (List.mem ("e", "b") r.Drift.removed_edges);
  checkb "cpu shift seen" true
    (List.exists (fun (s : Drift.resource_shift) -> s.Drift.fn = "a") r.Drift.resource_shifts)

let test_drift_threshold_gates_rates () =
  let old_g = chain ~wa:50 ~wb:50 and new_g = chain ~wa:55 ~wb:45 in
  let r = Drift.detect ~threshold:0.3 old_g new_g in
  checkb "10% shift below 30% threshold" false (Drift.drifted r);
  let r = Drift.detect ~threshold:0.05 old_g new_g in
  checkb "10% shift above 5% threshold" true (Drift.drifted r)

let qcheck_self_drift =
  QCheck.Test.make ~name:"control: detect g g never drifts" ~count:80
    (QCheck.int_range 1 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let g, _ = Gen.random_rdag rng ~n:(2 + Rng.int rng 18) ~heavy_fraction:0.2 () in
      not (Drift.drifted (Drift.detect g g)))

(* ---- hysteresis / cooldown of the control loop ---- *)

let drifting_report =
  Drift.detect (chain ~wa:90 ~wb:10) (chain ~wa:10 ~wb:90)

let quiet_report = Drift.detect (chain ~wa:50 ~wb:50) (chain ~wa:50 ~wb:50)

let loop_cfg ~hysteresis ~cooldown_us =
  { Loop.hysteresis; cooldown_us; noop_cooldown_us = cooldown_us; warmup_us = 5.0; eval_us = 6.0 }

(* The controller's window observation: drifted or not. *)
let window_of report = if Drift.drifted report then Loop.Drifted else Loop.Quiet

let test_detector_hysteresis_and_cooldown () =
  let cfg = loop_cfg ~hysteresis:2 ~cooldown_us:10.0 in
  let st = ref Loop.init in
  let step ~now obs =
    let st', actions = Loop.step cfg !st ~now obs in
    st := st';
    actions
  in
  let expect what want got = if got <> want then Alcotest.fail what in
  expect "expected Suspect 1" [ Loop.Suspect 1 ] (step ~now:1.0 (window_of drifting_report));
  expect "quiet window must reset the streak" [ Loop.Keep ] (step ~now:2.0 (window_of quiet_report));
  expect "streak restarts at 1" [ Loop.Suspect 1 ] (step ~now:3.0 (window_of drifting_report));
  expect "second consecutive drift must propose" [ Loop.Propose ]
    (step ~now:4.0 (window_of drifting_report));
  expect "the solver kept the plan" [ Loop.Rebaseline ]
    (step ~now:4.0 (Loop.Proposed { from = "p"; to_ = "p" }));
  expect "inside cooldown" [] (step ~now:5.0 (window_of drifting_report));
  expect "cooldown over, streak starts fresh" [ Loop.Suspect 1 ]
    (step ~now:15.0 (window_of drifting_report))

let qcheck_detector_quiet =
  QCheck.Test.make ~name:"control: zero-drift reports never Trigger" ~count:60
    (QCheck.int_range 1 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let cfg =
        loop_cfg ~hysteresis:(1 + Rng.int rng 3) ~cooldown_us:(float_of_int (Rng.int rng 20))
      in
      let st = ref Loop.init and ok = ref true in
      for i = 1 to 30 do
        let now = float_of_int i in
        let report =
          if Rng.chance rng 0.5 then quiet_report
          else
            (* Drifting windows may Suspect but a quiet one in between must
               keep resetting; only the final judgement matters here: a
               quiet report itself can never propose. *)
            drifting_report
        in
        let st', actions = Loop.step cfg !st ~now (window_of report) in
        st := st';
        if List.mem Loop.Propose actions then begin
          if not (Drift.drifted report) then ok := false;
          st := fst (Loop.step cfg !st ~now Loop.Unsolved)
        end
      done;
      !ok)

(* ---- canary judgement ---- *)

let stats ~n ~fail_rate ~tail_us = { Canary.n; fail_rate; tail_us }

let test_canary_verdicts () =
  let pre = stats ~n:200 ~fail_rate:0.0 ~tail_us:20_000.0 in
  (match Canary.judge ~pre ~post:(stats ~n:200 ~fail_rate:0.0 ~tail_us:22_000.0) with
  | Canary.Pass -> ()
  | _ -> Alcotest.fail "mild tail movement must pass");
  (match Canary.judge ~pre ~post:(stats ~n:200 ~fail_rate:0.0 ~tail_us:50_000.0) with
  | Canary.Regress _ -> ()
  | _ -> Alcotest.fail "2.5x tail must regress");
  (* An OOM-looping deployment can show a LOWER tail because only cheap
     requests survive: the failure-rate check must fire first. *)
  (match Canary.judge ~pre ~post:(stats ~n:200 ~fail_rate:0.3 ~tail_us:5_000.0) with
  | Canary.Regress reason ->
      checkb "reason mentions failures" true
        (String.length reason > 0 && String.lowercase_ascii reason <> "")
  | _ -> Alcotest.fail "failure spike must regress");
  match Canary.judge ~pre ~post:(stats ~n:3 ~fail_rate:0.0 ~tail_us:1_000.0) with
  | Canary.Inconclusive _ -> ()
  | _ -> Alcotest.fail "too few samples must be inconclusive"

let test_canary_stats_of () =
  let samples =
    [ (10_000.0, true); (20_000.0, true); (30_000.0, true); (40_000.0, false) ]
  in
  let s = Canary.stats_of samples in
  check Alcotest.int "n" 4 s.Canary.n;
  check (Alcotest.float 1e-9) "fail rate" 0.25 s.Canary.fail_rate;
  (* Tail is computed over successes only (the 40 ms sample failed); allow
     the histogram's bucket-midpoint error. *)
  checkb "tail over successes only" true (s.Canary.tail_us <= 30_000.0 *. 1.02)

(* ---- end-to-end smoke scenarios ---- *)

let run_scenario name =
  match Scenario.run ~smoke:true ~with_controller:true name with
  | Ok o -> o
  | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" name e)

let summary_of (o : Scenario.outcome) =
  match o.Scenario.o_summary with
  | Some s -> s
  | None -> Alcotest.fail "controller run must produce a summary"

let test_e2e_steady_keeps () =
  let o = run_scenario "steady" in
  let s = summary_of o in
  check Alcotest.int "no remerges" 0 s.Controller.s_remerges;
  check Alcotest.int "no rollbacks" 0 (s.Controller.s_rollbacks + s.Controller.s_watchdogs);
  checkb "kept at least once" true (s.Controller.s_keeps >= 1);
  checkb "groups unchanged" true (o.Scenario.o_initial_groups = o.Scenario.o_final_groups)

let test_e2e_path_shift_adapts () =
  let o = run_scenario "path-shift" in
  let s = summary_of o in
  checkb "remerged at least once" true (s.Controller.s_remerges >= 1);
  check Alcotest.int "no rollbacks" 0 (s.Controller.s_rollbacks + s.Controller.s_watchdogs);
  checkb "canary passed" true (s.Controller.s_canary_passes >= 1);
  checkb "hot b-chain co-located with the entry" true
    (List.mem
       [ "route-b1"; "route-b2"; "route-split" ]
       o.Scenario.o_final_groups);
  (* Equal seeds must give identical outcomes run to run. *)
  let o2 = run_scenario "path-shift" in
  checkb "equal seeds, identical final groups" true
    (o.Scenario.o_final_groups = o2.Scenario.o_final_groups);
  check Alcotest.int "equal seeds, identical remerge count" s.Controller.s_remerges
    (summary_of o2).Controller.s_remerges

let test_e2e_regress_rolls_back () =
  let o = run_scenario "regress" in
  let s = summary_of o in
  checkb "remerged at least once" true (s.Controller.s_remerges >= 1);
  checkb "canary rolled back" true (s.Controller.s_rollbacks >= 1);
  checkb "bad grouping held down" true (s.Controller.s_holds >= 1);
  checkb "ends on the initial (guarded) plan" true
    (o.Scenario.o_initial_groups = o.Scenario.o_final_groups)

let test_e2e_late_regress_watchdog () =
  let o = run_scenario "late-regress" in
  let s = summary_of o in
  checkb "canary passed the bad plan" true (s.Controller.s_canary_passes >= 1);
  checkb "watchdog rolled back" true (s.Controller.s_watchdogs >= 1);
  checkb "ends on the initial (guarded) plan" true
    (o.Scenario.o_initial_groups = o.Scenario.o_final_groups)

let test_e2e_json_counts_watchdogs () =
  (* The JSON summary carries every Controller.summary field: late-regress's
     watchdog count must match its logged watchdog rollbacks. *)
  let module Json = Quilt_util.Json in
  let j = Scenario.outcome_json (run_scenario "late-regress") in
  let logged =
    List.length
      (List.filter
         (fun e -> Json.member "kind" e = Json.str "watchdog_rollback")
         (Json.to_list (Json.member "events" j)))
  in
  checkb "late-regress logs a watchdog rollback" true (logged >= 1);
  check Alcotest.(option int) "summary.watchdogs" (Some logged)
    (Json.to_int_opt (Json.member "watchdogs" (Json.member "summary" j)))

let suite =
  [
    ( "control",
      [
        Alcotest.test_case "evict_before preserves windowed graphs" `Quick
          test_evict_preserves_windowed_graph;
        Alcotest.test_case "drift: rate comparison catches a mix flip" `Quick
          test_drift_rate_catches_mix_flip;
        Alcotest.test_case "drift: identical graphs are quiet" `Quick
          test_drift_identical_is_quiet;
        Alcotest.test_case "drift: topology and resource shifts" `Quick
          test_drift_topology_and_resources;
        Alcotest.test_case "drift: threshold gates rate shifts" `Quick
          test_drift_threshold_gates_rates;
        QCheck_alcotest.to_alcotest qcheck_self_drift;
        Alcotest.test_case "detector: hysteresis and cooldown" `Quick
          test_detector_hysteresis_and_cooldown;
        QCheck_alcotest.to_alcotest qcheck_detector_quiet;
        Alcotest.test_case "canary: verdict priorities" `Quick test_canary_verdicts;
        Alcotest.test_case "canary: stats_of" `Quick test_canary_stats_of;
        Alcotest.test_case "e2e: steady load keeps the plan" `Slow test_e2e_steady_keeps;
        Alcotest.test_case "e2e: path shift triggers an adapting remerge" `Slow
          test_e2e_path_shift_adapts;
        Alcotest.test_case "e2e: canary rolls back a bad remerge" `Slow
          test_e2e_regress_rolls_back;
        Alcotest.test_case "e2e: watchdog catches a late regression" `Slow
          test_e2e_late_regress_watchdog;
        Alcotest.test_case "e2e: JSON summary counts watchdog rollbacks" `Slow
          test_e2e_json_counts_watchdogs;
      ] );
  ]
