(* Tests for the fault subsystem: deterministic plans (equal seeds give
   equal traces and equal end-of-run statistics), the individual fault
   hook points, the retry/hedging gateway's semantics and accounting, the
   blast-radius metrics with the reliability penalty, and the chaos
   scenarios end to end — including the control plane rolling back a
   re-merge that a crash storm poisoned. *)

module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Plan = Quilt_fault.Plan
module Policy = Quilt_fault.Policy
module Scenario = Quilt_control.Scenario
module Metrics = Quilt_cluster.Metrics
module Types = Quilt_cluster.Types
module Callgraph = Quilt_dag.Callgraph
module Workflow = Quilt_apps.Workflow
module Special = Quilt_apps.Special
module Config = Quilt_core.Config
module Quilt = Quilt_core.Quilt

(* A two-function chain so there is a remote hop to break. *)
let chain_wf =
  let p ~c = { Workflow.compute_us = c; db_us = 0; mem_mb = 2 } in
  {
    Workflow.wf_name = "chain";
    entry = "front";
    functions =
      [
        Workflow.std_fn ~name:"front" ~lang:"rust" ~profile:(p ~c:300) ~children:[ "back" ] ();
        Workflow.std_fn ~name:"back" ~lang:"rust" ~profile:(p ~c:300) ();
      ];
    gen_req = (fun _ -> {|{"data":"x"}|});
    code_edges = [ ("front", "back", Callgraph.Sync) ];
  }

let chain_req = {|{"data":"x"}|}
let fresh_chain ?(seed = 0) () = Quilt.fresh_platform ~seed ~workflows:[ chain_wf ] ()

let one_req ?(entry = "dial") engine r =
  let res = ref None in
  Engine.submit engine ~entry ~req:r ~on_done:(fun ~latency_us ~ok -> res := Some (latency_us, ok));
  Engine.drain engine;
  match !res with Some x -> x | None -> Alcotest.fail "request never completed"

(* Lets at_us = 0 activations land before the first submission. *)
let settle engine = Engine.run_until engine (Engine.now engine +. 1.0)

(* --- the fault hook points, driven through Plan --- *)

let test_plan_kill_fails_inflight () =
  let engine = Test_engine.fresh_dial () in
  Test_engine.warm engine;
  let armed =
    Plan.arm
      (Plan.make ~seed:7 [ { Plan.at_us = 10_000.0; fault = Plan.Kill { fn = "dial"; count = 1 } } ])
      engine
  in
  let _, ok = one_req engine (Test_engine.req ~cpu:0 ~io:100_000 ~mem:0) in
  Alcotest.(check bool) "in-flight request failed" false ok;
  let c = Engine.counters engine in
  Alcotest.(check int) "crash kill counted" 1 c.Engine.crash_kills;
  Alcotest.(check int) "kill traced" 1 (List.length (Plan.trace armed));
  let _, ok2 = one_req engine (Test_engine.req ~cpu:1000 ~io:0 ~mem:0) in
  Alcotest.(check bool) "pool recovers after the kill" true ok2

let test_plan_mem_spike_ooms () =
  let engine = Test_engine.fresh_dial ~mem_limit:64.0 () in
  Test_engine.warm engine;
  let _ =
    Plan.arm
      (Plan.make ~seed:7
         [ { Plan.at_us = 10_000.0; fault = Plan.Mem_spike { fn = "dial"; mb = 200.0; duration_us = 50_000.0 } } ])
      engine
  in
  let _, ok = one_req engine (Test_engine.req ~cpu:0 ~io:100_000 ~mem:0) in
  Alcotest.(check bool) "request on the OOMed container failed" false ok;
  Alcotest.(check int) "oom counted" 1 (Engine.counters engine).Engine.oom_kills

let test_plan_net_drop_with_hop_timeout () =
  let engine = fresh_chain () in
  Engine.set_hop_timeout engine (Some 50_000.0);
  let _ =
    Plan.arm
      (Plan.make ~seed:3
         [ { Plan.at_us = 0.0; fault = Plan.Net_drop { src = "front"; dst = "back"; p = 1.0; duration_us = 1e8 } } ])
      engine
  in
  settle engine;
  let _, ok = one_req ~entry:"front" engine chain_req in
  Alcotest.(check bool) "dropped internal hop fails the request" false ok;
  let c = Engine.counters engine in
  Alcotest.(check bool) "drop counted" true (c.Engine.net_drops >= 1);
  Alcotest.(check bool) "hop timeout counted" true (c.Engine.hop_timeouts >= 1)

let test_plan_net_delay_adds_latency () =
  let measure ~delayed =
    let engine = fresh_chain () in
    ignore (one_req ~entry:"front" engine chain_req);
    if delayed then begin
      ignore
        (Plan.arm
           (Plan.make ~seed:3
              [
                {
                  Plan.at_us = 0.0;
                  fault =
                    Plan.Net_delay
                      { src = "client"; dst = "front"; delay_us = 5_000.0; jitter_us = 0.0; duration_us = 1e8 };
                };
              ])
           engine);
      settle engine
    end;
    fst (one_req ~entry:"front" engine chain_req)
  in
  let healthy = measure ~delayed:false and slow = measure ~delayed:true in
  Alcotest.(check (float 1.0)) "ingress delay shows up end to end" 5_000.0 (slow -. healthy)

let test_plan_cpu_degrade_slows_compute () =
  let engine = Test_engine.fresh_dial () in
  Test_engine.warm engine;
  let r = Test_engine.req ~cpu:10_000 ~io:0 ~mem:0 in
  let healthy, _ = one_req engine r in
  let _ =
    Plan.arm
      (Plan.make ~seed:1
         [ { Plan.at_us = 0.0; fault = Plan.Cpu_degrade { fn = "dial"; factor = 0.5; duration_us = 1e8 } } ])
      engine
  in
  settle engine;
  let degraded, ok = one_req engine r in
  Alcotest.(check bool) "still succeeds, just slowly" true ok;
  Alcotest.(check bool) "compute takes ~2x at factor 0.5" true (degraded > 1.5 *. healthy)

let test_plan_cache_flush_slows_cold_start () =
  let cold ~flushed =
    let engine = Test_engine.fresh_dial () in
    if flushed then begin
      ignore
        (Plan.arm
           (Plan.make ~seed:1
              [ { Plan.at_us = 0.0; fault = Plan.Image_cache_flush { pull_factor = 5.0; duration_us = 1e8 } } ])
           engine);
      settle engine
    end;
    fst (one_req engine (Test_engine.req ~cpu:0 ~io:0 ~mem:0))
  in
  let healthy = cold ~flushed:false and flushed = cold ~flushed:true in
  Alcotest.(check bool) "flushed image cache inflates the cold start" true (flushed > healthy +. 10.0)

(* --- determinism: the acceptance property of the whole subsystem --- *)

(* A storm plus probabilistic drops exercises every draw the plan's RNG
   makes (victim shuffles, drop coins); the signature captures the trace
   and every counter the run produced. *)
let chaos_signature plan_seed =
  let engine = fresh_chain ~seed:1 () in
  Engine.set_hop_timeout engine (Some 100_000.0);
  let plan =
    Plan.make ~seed:plan_seed
      [
        { Plan.at_us = 0.0; fault = Plan.Net_drop { src = "*"; dst = "*"; p = 0.3; duration_us = 150_000.0 } };
        {
          Plan.at_us = 5_000.0;
          fault = Plan.Crash_storm { fn = "front"; every_us = 20_000.0; until_us = 100_000.0; count = 1 };
        };
      ]
  in
  let armed = Plan.arm plan engine in
  let r =
    Loadgen.run_open_loop engine ~entry:"front"
      ~gen_req:(fun _ -> chain_req)
      ~rate_rps:50.0 ~duration_us:200_000.0 ()
  in
  (Plan.trace armed, r.Loadgen.successes, r.Loadgen.failures, r.Loadgen.offered, r.Loadgen.counters)

(* --- topology-aware patterns (node:/rack:) --- *)

let chain_cluster () =
  (* front on rack 0, back alone on rack 1. *)
  let topo =
    Quilt_place.Topology.make
      [
        Quilt_place.Topology.node ~rack:0 ~vcpus:8.0 ~mem_mb:4096.0 ();
        Quilt_place.Topology.node ~rack:1 ~vcpus:8.0 ~mem_mb:4096.0 ();
      ]
  in
  let engine = fresh_chain () in
  Engine.set_topology ~assign:[ ("front", 0); ("back", 1) ] engine topo;
  engine

let test_pattern_precedence () =
  let e = chain_cluster () in
  (* Exact name first: even a service named like a location pattern. *)
  Alcotest.(check bool) "exact name" true (Plan.matches e "front" "front");
  Alcotest.(check bool) "exact name beats location parsing" true
    (Plan.matches e "node:1" "node:1");
  Alcotest.(check bool) "wildcard" true (Plan.matches e "*" "back");
  (* Location forms resolve against the cluster. *)
  Alcotest.(check bool) "node:0 hosts front" true (Plan.matches e "node:0" "front");
  Alcotest.(check bool) "node:0 does not host back" false (Plan.matches e "node:0" "back");
  Alcotest.(check bool) "rack:1 hosts back" true (Plan.matches e "rack:1" "back");
  Alcotest.(check bool) "rack:1 does not host front" false (Plan.matches e "rack:1" "front");
  (* The client sits outside the cluster. *)
  Alcotest.(check bool) "client never matches a location" false
    (Plan.matches e "node:0" "client");
  Alcotest.(check bool) "client still matches itself" true (Plan.matches e "client" "client");
  (* Flat engines have no locations. *)
  let flat = fresh_chain () in
  Alcotest.(check bool) "flat engine: node: matches nothing" false
    (Plan.matches flat "node:0" "front");
  Alcotest.(check bool) "flat engine: rack: matches nothing" false
    (Plan.matches flat "rack:0" "front");
  Alcotest.(check bool) "garbage pattern matches nothing" false
    (Plan.matches e "node:x" "front")

let test_net_fault_by_rack_pattern () =
  (* Drop every hop into rack 1: the front->back call dies, so the request
     fails once the hop timeout fires. *)
  let engine = chain_cluster () in
  Engine.set_hop_timeout engine (Some 50_000.0);
  let _ =
    Plan.arm
      (Plan.make ~seed:3
         [ { Plan.at_us = 0.0; fault = Plan.Net_drop { src = "*"; dst = "rack:1"; p = 1.0; duration_us = 1e8 } } ])
      engine
  in
  settle engine;
  let _, ok = one_req ~entry:"front" engine chain_req in
  Alcotest.(check bool) "hop into the dark rack fails the request" false ok;
  Alcotest.(check bool) "drop counted" true ((Engine.counters engine).Engine.net_drops >= 1);
  (* The same plan against a flat engine matches no hop at all.  No hop
     timeout here: a wrongly matched drop would fail (or hang) the request
     on its own. *)
  let flat = fresh_chain () in
  let _ =
    Plan.arm
      (Plan.make ~seed:3
         [ { Plan.at_us = 0.0; fault = Plan.Net_drop { src = "*"; dst = "rack:1"; p = 1.0; duration_us = 1e8 } } ])
      flat
  in
  settle flat;
  let _, ok = one_req ~entry:"front" flat chain_req in
  Alcotest.(check bool) "flat engine unaffected" true ok

let test_plan_kill_node_fault () =
  (* A slow back end keeps the request in flight when the node dies. *)
  let p ~c = { Workflow.compute_us = c; db_us = 0; mem_mb = 2 } in
  let wf =
    {
      chain_wf with
      Workflow.functions =
        [
          Workflow.std_fn ~name:"front" ~lang:"rust" ~profile:(p ~c:300) ~children:[ "back" ] ();
          Workflow.std_fn ~name:"back" ~lang:"rust" ~profile:(p ~c:100_000) ();
        ];
    }
  in
  let engine = Quilt.fresh_platform ~workflows:[ wf ] () in
  Engine.set_topology ~assign:[ ("front", 0); ("back", 1) ] engine
    (Quilt_place.Topology.make
       [
         Quilt_place.Topology.node ~rack:0 ~vcpus:8.0 ~mem_mb:4096.0 ();
         Quilt_place.Topology.node ~rack:1 ~vcpus:8.0 ~mem_mb:4096.0 ();
       ]);
  ignore (one_req ~entry:"front" engine chain_req);
  let armed =
    Plan.arm
      (Plan.make ~seed:7 [ { Plan.at_us = 10_000.0; fault = Plan.Kill_node { node = 1 } } ])
      engine
  in
  let _, ok = one_req ~entry:"front" engine chain_req in
  Alcotest.(check bool) "request through the dead node failed" false ok;
  Alcotest.(check bool) "crash kills counted" true
    ((Engine.counters engine).Engine.crash_kills >= 1);
  Alcotest.(check int) "activation traced" 1 (List.length (Plan.trace armed));
  let _, ok2 = one_req ~entry:"front" engine chain_req in
  Alcotest.(check bool) "replacements cold-start on the node" true ok2

let test_plan_determinism_unit () =
  let a = chaos_signature 11 and b = chaos_signature 11 in
  Alcotest.(check bool) "same seed, same trace and stats" true (a = b);
  let t, _, _, _, _ = a in
  Alcotest.(check bool) "the plan actually fired" true (List.length t > 2)

let prop_plan_determinism =
  QCheck.Test.make ~name:"equal plan seeds give equal traces and counters" ~count:8
    (QCheck.int_range 0 1000)
    (fun seed -> chaos_signature seed = chaos_signature seed)

(* A chaos cell's overall result and gateway statistics. *)
let cell ?seed ~arm ~policy name =
  match Scenario.run ~smoke:true ?seed ~arm ~policy ~with_controller:false name with
  | Error e -> Alcotest.fail e
  | Ok ({ Scenario.o_gateway = Some (_, s); _ } as o) -> (o, o.Scenario.o_phased.Loadgen.overall, s)
  | Ok _ -> Alcotest.fail "a chaos cell runs behind the gateway"

let cell_signature seed =
  let o, r, s = cell ~seed ~arm:Scenario.Cm ~policy:"retry" "crashstorm" in
  ( o.Scenario.o_faults,
    (r.Loadgen.successes, r.Loadgen.failures, r.Loadgen.offered, r.Loadgen.counters),
    (s.Policy.attempts, s.Policy.retries, s.Policy.timeouts, s.Policy.wasted_work_us),
    Loadgen.availability r )

let test_scenario_determinism () =
  Alcotest.(check bool) "a whole scenario cell is reproducible" true (cell_signature 0 = cell_signature 0)

let test_unknown_scenario_is_error () =
  match Scenario.run ~smoke:true ~arm:Scenario.Baseline ~policy:"none" ~with_controller:false "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown scenario should be rejected"

(* --- the retry/hedging gateway --- *)

(* Fail the first [n] client→gateway hops, then heal. *)
let drop_first_ingress engine n =
  let dropped = ref 0 in
  Engine.set_network_fault engine
    (Some
       (fun ~caller ~callee:_ ->
         match caller with
         | None when !dropped < n ->
             incr dropped;
             Engine.Net_drop
         | _ -> Engine.Net_ok))

let gateway_once engine policy r =
  let gw = Policy.create engine policy in
  let res = ref None in
  Policy.submit gw ~entry:"dial" ~req:r ~on_done:(fun ~latency_us:_ ~ok -> res := Some ok);
  Engine.drain engine;
  match !res with Some ok -> (ok, Policy.stats gw) | None -> Alcotest.fail "gateway never delivered"

let test_policy_retry_recovers () =
  let engine = Test_engine.fresh_dial () in
  Test_engine.warm engine;
  drop_first_ingress engine 1;
  let ok, s = gateway_once engine Policy.default_retry (Test_engine.req ~cpu:1000 ~io:0 ~mem:0) in
  Alcotest.(check bool) "delivered ok on attempt 2" true ok;
  Alcotest.(check int) "one retry" 1 s.Policy.retries;
  Alcotest.(check int) "recovered" 1 s.Policy.recovered;
  Alcotest.(check int) "one replayed chain" 1 s.Policy.replayed_chains;
  Alcotest.(check int) "delivered exactly once" 1 (s.Policy.delivered_ok + s.Policy.delivered_fail)

let test_policy_at_most_once_never_retries () =
  let engine = Test_engine.fresh_dial () in
  Test_engine.warm engine;
  drop_first_ingress engine 1;
  let ok, s = gateway_once engine Policy.none (Test_engine.req ~cpu:1000 ~io:0 ~mem:0) in
  Alcotest.(check bool) "failure surfaces" false ok;
  Alcotest.(check int) "no retries" 0 s.Policy.retries;
  Alcotest.(check int) "no hedges" 0 s.Policy.hedges;
  Alcotest.(check int) "delivered fail" 1 s.Policy.delivered_fail

let test_policy_budget_denial () =
  let engine = Test_engine.fresh_dial () in
  Test_engine.warm engine;
  drop_first_ingress engine 10;
  let policy = { Policy.default_retry with Policy.retry_budget = 0.0; retry_burst = 0.0 } in
  let ok, s = gateway_once engine policy (Test_engine.req ~cpu:1000 ~io:0 ~mem:0) in
  Alcotest.(check bool) "fails without budget" false ok;
  Alcotest.(check int) "denied by the empty bucket" 1 s.Policy.budget_denied;
  Alcotest.(check int) "no retry happened" 0 s.Policy.retries

let test_policy_hedging_wastes_the_loser () =
  let engine = Test_engine.fresh_dial () in
  Test_engine.warm engine;
  let ok, s = gateway_once engine Policy.hedged (Test_engine.req ~cpu:0 ~io:300_000 ~mem:0) in
  Alcotest.(check bool) "first completion wins" true ok;
  Alcotest.(check int) "one hedge launched" 1 s.Policy.hedges;
  Alcotest.(check int) "hedge is a replayed chain" 1 s.Policy.replayed_chains;
  Alcotest.(check bool) "the losing attempt is wasted work" true (s.Policy.wasted_work_us > 0.0);
  Alcotest.(check int) "delivered exactly once" 1 s.Policy.delivered_ok

(* --- blast-radius metrics and the reliability penalty --- *)

let hand_graph () =
  let node id name = { Callgraph.id; name; mem_mb = 10.0; cpu = 1.0; mergeable = true } in
  Callgraph.make
    ~nodes:[| node 0 "a"; node 1 "b"; node 2 "c" |]
    ~edges:
      [
        { Callgraph.src = 0; dst = 1; weight = 10; kind = Callgraph.Sync };
        { Callgraph.src = 1; dst = 2; weight = 10; kind = Callgraph.Sync };
      ]
    ~root:0 ~invocations:10

let sg ~root ~members = { Types.root; absorbed = [ root ]; members; cpu = 3.0; mem_mb = 30.0 }

let test_blast_metrics () =
  let g = hand_graph () in
  let merged = { Types.roots = [ 0 ]; subgraphs = [ sg ~root:0 ~members:[| true; true; true |] ]; cost = 0 } in
  let singles =
    {
      Types.roots = [ 0; 1; 2 ];
      subgraphs =
        [
          sg ~root:0 ~members:[| true; false; false |];
          sg ~root:1 ~members:[| false; true; false |];
          sg ~root:2 ~members:[| false; false; true |];
        ];
      cost = 20;
    }
  in
  Alcotest.(check (list int)) "domain sizes, merged" [ 3 ] (Metrics.fault_domain_sizes merged);
  Alcotest.(check (list int)) "domain sizes, singletons" [ 1; 1; 1 ] (Metrics.fault_domain_sizes singles);
  (* Unit work per node (rate 1 × cpu 1): merged replays 3²/3 = 3 units,
     singletons 3·(1²/3) = 1 — merging triples the expected replay bill. *)
  Alcotest.(check (float 1e-9)) "replay, merged" 3.0 (Metrics.expected_replay_work g merged);
  Alcotest.(check (float 1e-9)) "replay, singletons" 1.0 (Metrics.expected_replay_work g singles);
  Alcotest.(check (float 1e-9)) "lambda 0 is pure cost" 20.0 (Metrics.reliability_score ~lambda:0.0 g singles);
  Alcotest.(check bool) "a big lambda flips the ranking" true
    (Metrics.reliability_score ~lambda:20.0 g singles < Metrics.reliability_score ~lambda:20.0 g merged)

let test_penalty_prefers_small_domains () =
  let wf = Special.routed () in
  let wf = { wf with Workflow.gen_req = Special.routed_req ~b_share:0.3 } in
  let cfg =
    { Config.default with Config.cpu_budget_ms = 6.5; profile_duration_us = 8_000_000.0; seed = 1 }
  in
  let graph =
    match Quilt.profile cfg ~workflows:[ wf ] wf with Ok g -> g | Error e -> Alcotest.fail e
  in
  let solve lambda =
    match Quilt.optimize ~graph { cfg with Config.reliability_lambda = lambda } ~workflows:[ wf ] wf with
    | Ok t -> t.Quilt.solution
    | Error e -> Alcotest.fail e
  in
  let s0 = solve 0.0 and s_inf = solve 1000.0 in
  Alcotest.(check bool) "lambda 0 still merges" true
    (List.exists (fun n -> n > 1) (Metrics.fault_domain_sizes s0));
  Alcotest.(check bool) "huge lambda buys singleton fault domains" true
    (List.for_all (fun n -> n = 1) (Metrics.fault_domain_sizes s_inf));
  Alcotest.(check bool) "and a smaller expected replay" true
    (Metrics.expected_replay_work graph s_inf < Metrics.expected_replay_work graph s0)

(* --- end to end: scenarios and the control plane --- *)

let test_retry_buys_availability () =
  let run policy = cell ~arm:Scenario.Quilt_merged ~policy "crashstorm" in
  let bare = run "none" in
  let retried = run "retry" in
  let av (_, r, _) = Loadgen.availability r in
  Alcotest.(check bool) "the storm hurts without retries" true (av bare < 1.0);
  Alcotest.(check bool) "retries recover availability" true (av retried > av bare);
  let _, _, s = retried in
  Alcotest.(check bool) "at a measured replay cost" true
    (s.Policy.replayed_chains > 0 && s.Policy.wasted_work_us > 0.0);
  (* Bounded: the budget caps replays well below the offered load. *)
  Alcotest.(check bool) "bounded by the retry budget" true
    (float_of_int s.Policy.replayed_chains
    <= (Policy.default_retry.Policy.retry_budget *. float_of_int s.Policy.offered)
       +. Policy.default_retry.Policy.retry_burst)

let test_crashy_scenario_triggers_rollback () =
  match Scenario.run ~smoke:true ~with_controller:true "crashy" with
  | Error e -> Alcotest.fail e
  | Ok o ->
      let c = o.Scenario.o_phased.Loadgen.overall.Loadgen.counters in
      Alcotest.(check bool) "the storm really killed containers" true (c.Engine.crash_kills > 0);
      (match o.Scenario.o_summary with
      | None -> Alcotest.fail "controller summary missing"
      | Some s ->
          Alcotest.(check bool) "the controller rolled the poisoned merge back" true
            (s.Quilt_control.Controller.s_rollbacks + s.Quilt_control.Controller.s_watchdogs >= 1))

let suite =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "kill fails in-flight, pool recovers" `Quick test_plan_kill_fails_inflight;
        Alcotest.test_case "mem spike ooms past the limit" `Quick test_plan_mem_spike_ooms;
        Alcotest.test_case "net drop + hop timeout" `Quick test_plan_net_drop_with_hop_timeout;
        Alcotest.test_case "net delay adds latency" `Quick test_plan_net_delay_adds_latency;
        Alcotest.test_case "cpu degrade slows compute" `Quick test_plan_cpu_degrade_slows_compute;
        Alcotest.test_case "cache flush slows cold starts" `Quick test_plan_cache_flush_slows_cold_start;
      ] );
    ( "fault.patterns",
      [
        Alcotest.test_case "pattern precedence: exact > * > node:/rack:" `Quick
          test_pattern_precedence;
        Alcotest.test_case "net fault by rack pattern" `Quick test_net_fault_by_rack_pattern;
        Alcotest.test_case "kill-node plan fault" `Quick test_plan_kill_node_fault;
      ] );
    ( "fault.determinism",
      [
        Alcotest.test_case "pinned chaos run" `Quick test_plan_determinism_unit;
        QCheck_alcotest.to_alcotest prop_plan_determinism;
        Alcotest.test_case "whole scenario cell" `Quick test_scenario_determinism;
        Alcotest.test_case "unknown scenario" `Quick test_unknown_scenario_is_error;
      ] );
    ( "fault.policy",
      [
        Alcotest.test_case "retry recovers a transient" `Quick test_policy_retry_recovers;
        Alcotest.test_case "at-most-once never retries" `Quick test_policy_at_most_once_never_retries;
        Alcotest.test_case "empty budget denies retries" `Quick test_policy_budget_denial;
        Alcotest.test_case "hedge loser is wasted work" `Quick test_policy_hedging_wastes_the_loser;
      ] );
    ( "fault.blast_radius",
      [
        Alcotest.test_case "replay work and domain sizes" `Quick test_blast_metrics;
        Alcotest.test_case "penalty shrinks chosen domains" `Quick test_penalty_prefers_small_domains;
      ] );
    ( "fault.e2e",
      [
        Alcotest.test_case "retries buy availability, bounded" `Quick test_retry_buys_availability;
        Alcotest.test_case "crashy triggers controller rollback" `Quick test_crashy_scenario_triggers_rollback;
      ] );
  ]
