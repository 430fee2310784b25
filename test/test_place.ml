(* The placement subsystem: topology math, the four policies' qcheck
   invariants (capacity safety, determinism, placed-or-rejected totality),
   the engine's node model (reservations, capacity denials, image cache,
   node kills), topology-priced cut edges, and the rebalancer loop. *)

module Topology = Quilt_place.Topology
module Placement = Quilt_place.Placement
module Topocost = Quilt_cluster.Topocost
module Decision = Quilt_cluster.Decision
module Types = Quilt_cluster.Types
module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Rebalancer = Quilt_control.Rebalancer
module Workflow = Quilt_apps.Workflow
module Special = Quilt_apps.Special
module Config = Quilt_core.Config
module Quilt = Quilt_core.Quilt
module Rng = Quilt_util.Rng

(* --- topology --- *)

let two_racks ?image_cache () =
  Topology.make ?image_cache
    [
      Topology.node ~rack:0 ~vcpus:8.0 ~mem_mb:4096.0 ();
      Topology.node ~rack:0 ~vcpus:8.0 ~mem_mb:4096.0 ();
      Topology.node ~rack:1 ~vcpus:4.0 ~mem_mb:2048.0 ();
    ]

let cluster_of = function
  | Topology.Cluster c -> c
  | Topology.Flat -> Alcotest.fail "expected a cluster"

let test_topology_basics () =
  let t = two_racks () in
  let c = cluster_of t in
  Alcotest.(check int) "n_nodes" 3 (Topology.n_nodes t);
  Alcotest.(check int) "flat has one implicit node" 1 (Topology.n_nodes Topology.flat);
  Alcotest.(check bool) "dense ids" true
    (Array.to_list (Array.map (fun n -> n.Topology.node_id) c.Topology.nodes) = [ 0; 1; 2 ]);
  Alcotest.(check bool) "same node" true (Topology.dist c 1 1 = Topology.Same_node);
  Alcotest.(check bool) "same rack" true (Topology.dist c 0 1 = Topology.Same_rack);
  Alcotest.(check bool) "cross rack" true (Topology.dist c 0 2 = Topology.Cross_rack);
  Alcotest.(check (float 1e-9)) "flat rtt is the default" 200.0
    (Topology.rtt_us Topology.flat ~default_rtt_us:200.0 0 5);
  Alcotest.(check (float 1e-9)) "cross-rack tier" c.Topology.rtt_cross_rack_us
    (Topology.rtt_us t ~default_rtt_us:200.0 1 2);
  Alcotest.(check bool) "describe mentions racks" true
    (String.length (Topology.describe t) > 0)

let test_topology_validation () =
  Alcotest.check_raises "empty cluster"
    (Invalid_argument "Topology.make: empty node list") (fun () ->
      ignore (Topology.make []));
  let bad () =
    ignore (Topology.make [ Topology.node ~rack:0 ~vcpus:0.0 ~mem_mb:64.0 () ])
  in
  match bad () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "non-positive capacity accepted"

(* --- policies: units --- *)

let d ?(vcpus = 2.0) ?(mem = 128.0) s = Placement.demand ~service:s ~vcpus ~mem_mb:mem

let test_flat_placement () =
  let p = Placement.plan Topology.flat Placement.Best_fit [ d "a"; d "b" ] in
  Alcotest.(check bool) "all on node 0" true (p.Placement.placed = [ ("a", 0); ("b", 0) ]);
  Alcotest.(check int) "no rejections" 0 (List.length p.Placement.rejected)

let test_rejections_are_explicit () =
  let tiny = Topology.make [ Topology.node ~rack:0 ~vcpus:4.0 ~mem_mb:4096.0 () ] in
  let p =
    Placement.plan tiny Placement.First_fit [ d "a"; d "b"; d "c"; d ~vcpus:(-1.0) "neg"; d "a" ]
  in
  Alcotest.(check bool) "a and b fit" true
    (Placement.node_of p "a" = Some 0 && Placement.node_of p "b" = Some 0);
  Alcotest.(check bool) "c rejected for capacity" true
    (match List.assoc_opt "c" p.Placement.rejected with
    | Some reason -> String.length reason > 0
    | None -> false);
  Alcotest.(check bool) "negative demand rejected" true
    (List.assoc_opt "neg" p.Placement.rejected = Some "non-positive demand");
  Alcotest.(check bool) "duplicate rejected" true
    (List.mem ("a", "duplicate service") p.Placement.rejected)

let test_locality_colocates_spread_separates () =
  let t = two_racks () in
  let aff = [ { Placement.a_src = "a"; a_dst = "b"; a_weight = 10.0 } ] in
  let loc = Placement.plan ~affinities:aff t Placement.Locality [ d "a"; d "b" ] in
  (match (Placement.node_of loc "a", Placement.node_of loc "b") with
  | Some u, Some v -> Alcotest.(check int) "locality co-locates the pair" u v
  | _ -> Alcotest.fail "locality rejected a feasible pair");
  let spr = Placement.plan ~affinities:aff t Placement.Spread [ d "a"; d "b" ] in
  (match (Placement.node_of spr "a", Placement.node_of spr "b") with
  | Some u, Some v ->
      Alcotest.(check bool) "spread separates racks" true
        (Topology.dist (cluster_of t) u v = Topology.Cross_rack)
  | _ -> Alcotest.fail "spread rejected a feasible pair");
  Alcotest.(check (float 1e-9)) "cross_rack_weight sees the split" 10.0
    (Placement.cross_rack_weight t spr aff);
  Alcotest.(check (float 1e-9)) "co-located pair crosses nothing" 0.0
    (Placement.cross_rack_weight t loc aff)

(* --- policies: qcheck invariants --- *)

let gen_instance seed =
  let rng = Rng.create seed in
  let n_nodes = Rng.int_in rng 1 5 in
  let nodes =
    List.init n_nodes (fun _ ->
        Topology.node ~rack:(Rng.int rng 3)
          ~vcpus:(float_of_int (Rng.int_in rng 2 10))
          ~mem_mb:(float_of_int (Rng.int_in rng 256 2048))
          ())
  in
  let topo = Topology.make nodes in
  let n_dem = Rng.int_in rng 1 12 in
  let demands =
    List.init n_dem (fun i ->
        Placement.demand
          ~service:(Printf.sprintf "s%d" i)
          ~vcpus:(0.5 +. Rng.float rng 3.5)
          ~mem_mb:(16.0 +. Rng.float rng 400.0))
  in
  let affinities =
    if n_dem < 2 then []
    else
      List.init (Rng.int rng 8) (fun _ ->
          let a = Rng.int rng n_dem and b = Rng.int rng n_dem in
          {
            Placement.a_src = Printf.sprintf "s%d" a;
            a_dst = Printf.sprintf "s%d" b;
            a_weight = 1.0 +. Rng.float rng 20.0;
          })
  in
  let policy =
    Rng.pick rng [ Placement.First_fit; Placement.Best_fit; Placement.Locality; Placement.Spread ]
  in
  (topo, policy, demands, affinities, Rng.int rng 1000)

let prop_capacity_never_exceeded =
  QCheck.Test.make ~name:"place: no node exceeds capacity" ~count:300
    (QCheck.int_range 1 1_000_000)
    (fun qseed ->
      let topo, policy, demands, affinities, seed = gen_instance qseed in
      let p = Placement.plan ~seed ~affinities topo policy demands in
      let c = cluster_of topo in
      Array.for_all
        (fun (nd : Topology.node) ->
          let mine =
            List.filter_map
              (fun (s, i) ->
                if i = nd.Topology.node_id then
                  List.find_opt (fun dm -> dm.Placement.d_service = s) demands
                else None)
              p.Placement.placed
          in
          List.fold_left (fun a dm -> a +. dm.Placement.d_vcpus) 0.0 mine
          <= nd.Topology.vcpus +. 1e-9
          && List.fold_left (fun a dm -> a +. dm.Placement.d_mem_mb) 0.0 mine
             <= nd.Topology.mem_mb +. 1e-9)
        c.Topology.nodes)

let prop_equal_seeds_identical =
  QCheck.Test.make ~name:"place: equal seeds give identical placements" ~count:200
    (QCheck.int_range 1 1_000_000)
    (fun qseed ->
      let topo, policy, demands, affinities, seed = gen_instance qseed in
      Placement.plan ~seed ~affinities topo policy demands
      = Placement.plan ~seed ~affinities topo policy demands)

let prop_placed_or_rejected =
  QCheck.Test.make ~name:"place: every demand placed or explicitly rejected" ~count:300
    (QCheck.int_range 1 1_000_000)
    (fun qseed ->
      let topo, policy, demands, affinities, seed = gen_instance qseed in
      let p = Placement.plan ~seed ~affinities topo policy demands in
      let outcome =
        List.map fst p.Placement.placed @ List.map fst p.Placement.rejected
      in
      List.sort compare outcome
      = List.sort compare (List.map (fun dm -> dm.Placement.d_service) demands)
      && List.length outcome = List.length demands)

(* --- engine node model --- *)

let routed_engine ?(seed = 7) ~assign topo () =
  let wf = Special.routed () in
  let engine = Quilt.fresh_platform ~seed ~workflows:[ wf ] () in
  Engine.set_topology ~assign engine topo;
  (engine, wf)

let run_some engine (wf : Workflow.t) n =
  let rng = Rng.create 3 in
  let left = ref n in
  for _ = 1 to n do
    Engine.submit engine ~entry:wf.Workflow.entry ~req:(wf.Workflow.gen_req rng)
      ~on_done:(fun ~latency_us:_ ~ok:_ -> decr left)
  done;
  Engine.drain engine;
  Alcotest.(check int) "all delivered" 0 !left

let test_engine_flat_noops () =
  let wf = Special.routed () in
  let engine = Quilt.fresh_platform ~workflows:[ wf ] () in
  Alcotest.(check bool) "flat topology" true (Engine.topology engine = Topology.Flat);
  Alcotest.(check int) "kill_node is a no-op" 0 (Engine.kill_node engine ~node:0);
  Alcotest.(check bool) "reassign refused" false
    (Engine.reassign engine ~service:"route-split" ~node:0);
  Alcotest.(check int) "no node loads" 0 (Array.length (Engine.node_loads engine));
  Alcotest.(check bool) "no node for services" true
    (Engine.node_of_service engine "route-split" = None);
  let h = Engine.topo_counters engine in
  Alcotest.(check int) "no hops classified" 0
    (h.Engine.hops_same_node + h.Engine.hops_same_rack + h.Engine.hops_cross_rack)

let test_engine_out_of_range_assign () =
  let wf = Special.routed () in
  let engine = Quilt.fresh_platform ~workflows:[ wf ] () in
  match Engine.set_topology ~assign:[ ("route-split", 9) ] engine (two_racks ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-range node id accepted"

let test_engine_reservations_and_hops () =
  (* Node 0 is sized so all five services' planned first pods (5 x 2 vCPU)
     fit — set_topology accepts over-packed explicit assignments, and the
     always-admitted first pod would then legitimately overcommit. *)
  let roomy =
    Topology.make
      [
        Topology.node ~rack:0 ~vcpus:16.0 ~mem_mb:8192.0 ();
        Topology.node ~rack:1 ~vcpus:4.0 ~mem_mb:2048.0 ();
      ]
  in
  let all_on_node0 = [ "route-split"; "route-a1"; "route-a2"; "route-b1"; "route-b2" ] in
  let engine, wf =
    routed_engine ~assign:(List.map (fun s -> (s, 0)) all_on_node0) roomy ()
  in
  run_some engine wf 10;
  let h = Engine.topo_counters engine in
  Alcotest.(check bool) "co-located: only same-node hops" true
    (h.Engine.hops_same_node > 0 && h.Engine.hops_same_rack = 0 && h.Engine.hops_cross_rack = 0);
  let loads = Engine.node_loads engine in
  Alcotest.(check bool) "node 0 holds reservations" true
    (loads.(0).Engine.nl_used_vcpus > 0.0 && loads.(0).Engine.nl_containers > 0);
  Alcotest.(check bool) "node capacity respected" true
    (loads.(0).Engine.nl_used_vcpus <= loads.(0).Engine.nl_node.Topology.vcpus +. 1e-9);
  (* Split across racks: the same workload must now classify cross-rack. *)
  let engine2, wf2 =
    routed_engine
      ~assign:[ ("route-split", 0); ("route-a1", 2); ("route-a2", 2); ("route-b1", 0); ("route-b2", 0) ]
      (two_racks ()) ()
  in
  run_some engine2 wf2 10;
  let h2 = Engine.topo_counters engine2 in
  Alcotest.(check bool) "split: cross-rack hops appear" true (h2.Engine.hops_cross_rack > 0)

let test_engine_capacity_denials () =
  (* One node that fits exactly one 2-vCPU container: concurrency wants a
     second pod, the node refuses, the denial is counted, and the pool
     never exceeds one. *)
  let one = Topology.make [ Topology.node ~rack:0 ~vcpus:2.0 ~mem_mb:4096.0 () ] in
  let wf = Special.routed () in
  let engine = Quilt.fresh_platform ~workflows:[ wf ] () in
  Engine.set_topology ~assign:[ ("route-split", 0) ] engine one;
  let rng = Rng.create 3 in
  for _ = 1 to 40 do
    Engine.submit engine ~entry:wf.Workflow.entry ~req:(wf.Workflow.gen_req rng)
      ~on_done:(fun ~latency_us:_ ~ok:_ -> ())
  done;
  Engine.drain engine;
  let h = Engine.topo_counters engine in
  Alcotest.(check bool) "denials counted" true (h.Engine.capacity_denials > 0);
  Alcotest.(check bool) "entry pool capped by the node" true
    (Engine.peak_pool_size engine "route-split" = 1)

let test_engine_image_cache () =
  (* Cold start, kill the pool, cold start again: with the node image cache
     the second pull is free, without it both cost the same.  Identical
     event sequences except the cache bit, so the comparison is exact. *)
  let run ~image_cache =
    let engine, wf =
      routed_engine ~assign:[] (two_racks ~image_cache ()) ()
    in
    let lat = ref [] in
    let rng = Rng.create 5 in
    let once () =
      Engine.submit engine ~entry:wf.Workflow.entry ~req:(wf.Workflow.gen_req rng)
        ~on_done:(fun ~latency_us ~ok:_ -> lat := latency_us :: !lat);
      Engine.drain engine
    in
    once ();
    List.iter (fun f -> ignore (Engine.kill_all_containers engine ~fn:f))
      [ "route-split"; "route-a1"; "route-a2"; "route-b1"; "route-b2" ];
    once ();
    match !lat with [ second; first ] -> (first, second) | _ -> Alcotest.fail "two requests"
  in
  let f_on, s_on = run ~image_cache:true in
  let f_off, s_off = run ~image_cache:false in
  Alcotest.(check (float 1e-6)) "first cold start identical either way" f_off f_on;
  Alcotest.(check bool) "cached re-pull strictly faster" true (s_on < s_off);
  Alcotest.(check (float 1e-6)) "uncached re-pull pays full price" f_off s_off

let test_engine_kill_node () =
  let engine, wf =
    routed_engine
      ~assign:[ ("route-split", 0); ("route-a1", 1); ("route-a2", 1); ("route-b1", 1); ("route-b2", 1) ]
      (two_racks ()) ()
  in
  run_some engine wf 5;
  let before = (Engine.counters engine).Engine.crash_kills in
  let on_node1 = (Engine.node_loads engine).(1).Engine.nl_containers in
  Alcotest.(check bool) "node 1 hosts containers" true (on_node1 > 0);
  let killed = Engine.kill_node engine ~node:1 in
  Alcotest.(check int) "every container on the node died" on_node1 killed;
  Alcotest.(check int) "each counted as a crash kill" (before + killed)
    (Engine.counters engine).Engine.crash_kills;
  Alcotest.(check (float 1e-9)) "reservations released" 0.0
    (Engine.node_loads engine).(1).Engine.nl_used_vcpus;
  Alcotest.(check int) "out of range is a no-op" 0 (Engine.kill_node engine ~node:9);
  (* The node is dead capacity-wise only momentarily: the next request
     cold-starts replacements on it. *)
  run_some engine wf 3;
  Alcotest.(check bool) "node repopulates" true
    ((Engine.node_loads engine).(1).Engine.nl_containers > 0)

(* --- topology-priced cut edges --- *)

let routed_solution () =
  let wf = Special.routed () in
  let cfg = { Config.default with Config.cpu_budget_ms = 6.5 } in
  let g =
    match Quilt.profile cfg ~workflows:[ wf ] wf with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  let sol =
    match Decision.solve Decision.Optimal g (Config.limits cfg) with
    | Some s -> s
    | None -> Alcotest.fail "no solution"
  in
  (g, sol)

let test_topocost_flat_recovers_seed_objective () =
  let g, sol = routed_solution () in
  let total_alpha =
    List.fold_left (fun a c -> a +. c.Placement.a_weight) 0.0 (Topocost.cut_affinities g sol)
  in
  let placement = Topocost.place ~vcpus:2.0 ~mem_mb:128.0 Topology.flat g sol in
  Alcotest.(check (float 1e-6)) "flat pricing = alpha x default rtt"
    (total_alpha *. 200.0)
    (Topocost.priced_cost_us ~default_rtt_us:200.0 Topology.flat placement g sol);
  (* A cluster where every tier costs R prices exactly like a flat world
     with rtt R. *)
  let uniform =
    Topology.make ~rtt_same_node_us:200.0 ~rtt_same_rack_us:200.0 ~rtt_cross_rack_us:200.0
      [
        Topology.node ~rack:0 ~vcpus:64.0 ~mem_mb:65536.0 ();
        Topology.node ~rack:1 ~vcpus:64.0 ~mem_mb:65536.0 ();
      ]
  in
  let up = Topocost.place ~vcpus:2.0 ~mem_mb:128.0 uniform g sol in
  Alcotest.(check (float 1e-6)) "uniform cluster = flat"
    (total_alpha *. 200.0)
    (Topocost.priced_cost_us ~default_rtt_us:999.0 uniform up g sol)

let test_topocost_select_argmin_and_ties () =
  let g, sol = routed_solution () in
  match
    Topocost.select ~default_rtt_us:200.0 ~vcpus:2.0 ~mem_mb:128.0 Topology.flat g [ sol; sol ]
  with
  | None -> Alcotest.fail "select on non-empty list"
  | Some (chosen, _, cost) ->
      Alcotest.(check bool) "earlier candidate wins the tie" true (chosen == sol);
      let placement = Topocost.place ~vcpus:2.0 ~mem_mb:128.0 Topology.flat g sol in
      Alcotest.(check (float 1e-6)) "cost matches a direct pricing"
        (Topocost.priced_cost_us ~default_rtt_us:200.0 Topology.flat placement g sol)
        cost;
      Alcotest.(check bool) "empty candidates give None" true
        (Topocost.select ~default_rtt_us:200.0 ~vcpus:2.0 ~mem_mb:128.0 Topology.flat g []
        = None)

(* --- rebalancer --- *)

let test_rebalancer_migrates_off_hot_node () =
  (* Everything packed on node 0 (deliberately over its 8 vCPUs, so
     utilization is far above the hot threshold) with plenty of slack
     elsewhere: the loop must migrate something away, the canary must
     judge it, and the migrated service must really live elsewhere. *)
  let all = [ "route-split"; "route-a1"; "route-a2"; "route-b1"; "route-b2" ] in
  let engine, wf =
    routed_engine ~assign:(List.map (fun s -> (s, 0)) all) (Topology.example ()) ()
  in
  let reb = Rebalancer.create engine in
  let until = 60_000_000.0 in
  Rebalancer.start reb ~until;
  let res =
    Loadgen.run_open_loop engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req
      ~rate_rps:25.0 ~duration_us:until ~warmup_us:5_000_000.0 ()
  in
  Alcotest.(check bool) "load survived the migrations" true (Loadgen.availability res > 0.95);
  let s = Rebalancer.summary reb in
  Alcotest.(check bool) "at least one migration" true (s.Rebalancer.s_migrations >= 1);
  Alcotest.(check bool) "every migration got a verdict" true
    (s.Rebalancer.s_passes + s.Rebalancer.s_reverts >= 1);
  Alcotest.(check bool) "someone left node 0" true
    (List.exists (fun svc -> Engine.node_of_service engine svc <> Some 0) all);
  Alcotest.(check bool) "rebalancing happened while balanced ticks exist too" true
    (s.Rebalancer.s_ticks > s.Rebalancer.s_migrations)

let test_rebalancer_revert_keeps_serving_version () =
  (* The same packed node, with 30% of the hops to the first migrated
     service (route-a1, the cheapest on node 0) dropped until 10.5 s: the
     canary sees the failure spike and moves it back at the 12 s verdict.
     With a 1 s hop timeout every dropped hop has failed by 11.5 s, so no
     request may fail after that: the move back must keep the version
     that still serves traffic alive until the new pod is ready, and
     decommission it afterwards, leaving no container outside the routed
     versions. *)
  let all = [ "route-split"; "route-a1"; "route-a2"; "route-b1"; "route-b2" ] in
  let engine, wf =
    routed_engine ~assign:(List.map (fun s -> (s, 0)) all) (Topology.example ()) ()
  in
  Engine.set_hop_timeout engine (Some 1_000_000.0);
  let rng = Rng.create 11 in
  Engine.set_network_fault engine
    (Some
       (fun ~caller:_ ~callee ->
         if callee = "route-a1" && Engine.now engine < 10_500_000.0 && Rng.chance rng 0.3 then
           Engine.Net_drop
         else Engine.Net_ok));
  let late_failures = ref 0 in
  Engine.add_completion_hook engine (fun ~entry:_ ~latency_us:_ ~ok ->
      if (not ok) && Engine.now engine >= 11_500_000.0 then incr late_failures);
  let reb = Rebalancer.create engine in
  let until = 60_000_000.0 in
  Rebalancer.start reb ~until;
  let _ =
    Loadgen.run_open_loop engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req
      ~rate_rps:25.0 ~duration_us:until ~warmup_us:5_000_000.0 ()
  in
  Alcotest.(check int) "the migration was reverted" 1 (Rebalancer.summary reb).Rebalancer.s_reverts;
  Alcotest.(check int) "no failure after the fault cleared" 0 !late_failures;
  let containers =
    Array.fold_left (fun n nl -> n + nl.Engine.nl_containers) 0 (Engine.node_loads engine)
  in
  Alcotest.(check int) "only routed versions hold containers"
    (List.fold_left (fun n s -> n + Engine.pool_size engine (Engine.route_of engine s)) 0 all)
    containers

let test_rebalancer_flat_engine_is_noop () =
  let wf = Special.routed () in
  let engine = Quilt.fresh_platform ~workflows:[ wf ] () in
  let reb = Rebalancer.create engine in
  Rebalancer.tick reb;
  Rebalancer.tick reb;
  let s = Rebalancer.summary reb in
  Alcotest.(check int) "no migrations on a flat engine" 0 s.Rebalancer.s_migrations;
  Alcotest.(check int) "ticks still counted" 2 s.Rebalancer.s_ticks

let suite =
  [
    ( "place.topology",
      [
        Alcotest.test_case "nodes, racks, rtt tiers" `Quick test_topology_basics;
        Alcotest.test_case "validation" `Quick test_topology_validation;
      ] );
    ( "place.plan",
      [
        Alcotest.test_case "flat puts everything on node 0" `Quick test_flat_placement;
        Alcotest.test_case "rejections are explicit" `Quick test_rejections_are_explicit;
        Alcotest.test_case "locality co-locates, spread separates" `Quick
          test_locality_colocates_spread_separates;
        QCheck_alcotest.to_alcotest prop_capacity_never_exceeded;
        QCheck_alcotest.to_alcotest prop_equal_seeds_identical;
        QCheck_alcotest.to_alcotest prop_placed_or_rejected;
      ] );
    ( "place.engine",
      [
        Alcotest.test_case "flat engine: cluster API is inert" `Quick test_engine_flat_noops;
        Alcotest.test_case "out-of-range assignment refused" `Quick
          test_engine_out_of_range_assign;
        Alcotest.test_case "reservations and hop classes" `Quick
          test_engine_reservations_and_hops;
        Alcotest.test_case "full node denies scale-ups" `Quick test_engine_capacity_denials;
        Alcotest.test_case "per-node image cache" `Quick test_engine_image_cache;
        Alcotest.test_case "node is a failure domain" `Quick test_engine_kill_node;
      ] );
    ( "place.topocost",
      [
        Alcotest.test_case "flat pricing recovers the seed objective" `Quick
          test_topocost_flat_recovers_seed_objective;
        Alcotest.test_case "select is an argmin with stable ties" `Quick
          test_topocost_select_argmin_and_ties;
      ] );
    ( "place.rebalancer",
      [
        Alcotest.test_case "migrates off a hot node under canary" `Quick
          test_rebalancer_migrates_off_hot_node;
        Alcotest.test_case "a revert keeps the serving version" `Quick
          test_rebalancer_revert_keeps_serving_version;
        Alcotest.test_case "flat engine is a no-op" `Quick test_rebalancer_flat_engine_is_noop;
      ] );
  ]
