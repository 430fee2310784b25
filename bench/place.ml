(* Placement benchmark: the flat world vs a real cluster topology.

   Arms: (1) a flat-parity check — installing Topology.flat must leave the
   seed engine bit-identical; (2) the four placement policies on the
   6-node/3-rack example cluster, measuring latency and the engine's
   hop-distance counters; (3) a node-kill chaos run per policy (the
   most-loaded non-entry node dies mid-run) measuring availability and
   blast radius; (4) the joint merge+placement decision: the same
   candidate groupings priced flat vs by topology distance
   (Topocost.select).  Writes BENCH_place.json. *)

open Common
module Topology = Quilt_place.Topology
module Placement = Quilt_place.Placement
module Params = Quilt_platform.Params
module Plan = Quilt_fault.Plan
module Special = Quilt_apps.Special
module Deathstar = Quilt_apps.Deathstar
module Topocost = Quilt_cluster.Topocost
module Decision = Quilt_cluster.Decision
module Types = Quilt_cluster.Types
module Callgraph = Quilt_dag.Callgraph
module Ast = Quilt_lang.Ast


(* --- workloads --- *)

let compose_post () =
  match Deathstar.social_network ~async:false () with
  | wf :: _ -> wf
  | [] -> failwith "social_network returned no workflows"

let routed () =
  let wf = Special.routed () in
  { wf with Workflow.gen_req = Special.routed_req ~b_share:0.3 }

(* --- placement inputs --- *)

let demands_of ?(alphabetical = false) (wf : Workflow.t) =
  let ds =
    List.map
      (fun (fn : Ast.fn) ->
        Placement.demand ~service:fn.Ast.fn_name ~vcpus:Config.default.Config.vcpus
          ~mem_mb:Config.default.Config.mem_limit_mb)
      wf.Workflow.functions
  in
  if alphabetical then
    List.sort (fun a b -> compare a.Placement.d_service b.Placement.d_service) ds
  else ds

let affinities_of (wf : Workflow.t) =
  List.map
    (fun (s, d, _) -> { Placement.a_src = s; a_dst = d; a_weight = 1.0 })
    wf.Workflow.code_edges

(* The oblivious arm: first-fit over alphabetically ordered demands — a
   scheduler that knows capacities but nothing about who calls whom (not
   even the call order the workflow definition would leak). *)
type arm = { arm_name : string; policy : Placement.policy; alphabetical : bool }

let arms =
  [
    { arm_name = "first-fit"; policy = Placement.First_fit; alphabetical = true };
    { arm_name = "best-fit"; policy = Placement.Best_fit; alphabetical = true };
    { arm_name = "spread"; policy = Placement.Spread; alphabetical = true };
    { arm_name = "locality"; policy = Placement.Locality; alphabetical = false };
  ]

let placement_for ~seed topo arm wf =
  Placement.plan ~seed ~affinities:(affinities_of wf) topo arm.policy
    (demands_of ~alphabetical:arm.alphabetical wf)

(* Most-loaded node excluding the entry's — killing the ingress teaches
   nothing about placement, every arm dies equally. *)
let kill_target topo placement ~entry =
  let n = Topology.n_nodes topo in
  let counts = Array.make n 0 in
  List.iter (fun (_, i) -> counts.(i) <- counts.(i) + 1) placement.Placement.placed;
  let entry_node = Placement.node_of placement entry in
  let best = ref (-1) and best_c = ref (-1) in
  for i = 0 to n - 1 do
    if Some i <> entry_node && counts.(i) > !best_c then begin
      best := i;
      best_c := counts.(i)
    end
  done;
  if !best >= 0 then !best else 0

(* --- one measured run --- *)

let run_workload ~(wf : Workflow.t) ~seed ~rate ~duration_us ?topo_assign ?kill () =
  let engine = Quilt.fresh_platform ~seed ~workflows:[ wf ] () in
  (match topo_assign with
  | None -> ()
  | Some (topo, assign) -> Engine.set_topology ~assign engine topo);
  (match kill with
  | None -> ()
  | Some (node, times) ->
      let plan =
        Plan.make ~seed:(41 + seed)
          (List.map (fun at_us -> { Plan.at_us; fault = Plan.Kill_node { node } }) times)
      in
      ignore (Plan.arm plan engine));
  let res =
    Loadgen.run_open_loop engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req
      ~rate_rps:rate ~duration_us ~warmup_us:(duration_us *. 0.15) ()
  in
  (res, Engine.topo_counters engine)

let result_fingerprint (r : Loadgen.result) =
  ( Loadgen.median_ms r,
    Loadgen.p99_ms r,
    r.Loadgen.successes,
    r.Loadgen.failures,
    r.Loadgen.offered,
    r.Loadgen.counters )

let hops_json (h : Engine.hop_counters) =
  Json.Obj
    [
      ("same_node", Json.int h.Engine.hops_same_node);
      ("same_rack", Json.int h.Engine.hops_same_rack);
      ("cross_rack", Json.int h.Engine.hops_cross_rack);
      ("image_cache_hits", Json.int h.Engine.image_cache_hits);
      ("capacity_denials", Json.int h.Engine.capacity_denials);
    ]

let result_json (r : Loadgen.result) =
  Json.Obj
    [
      ("median_ms", Json.Float (Loadgen.median_ms r));
      ("p99_ms", Json.Float (Loadgen.p99_ms r));
      ("availability", Json.Float (Loadgen.availability r));
      ("offered", Json.int r.Loadgen.offered);
      ("failures", Json.int r.Loadgen.failures);
      ("cold_starts", Json.int r.Loadgen.counters.Engine.cold_starts);
    ]

(* --- the joint merge + placement decision --- *)

(* The unmerged grouping as an explicit candidate (Quilt.singleton_solution
   is private to the core; four lines reproduce it). *)
let singleton_solution (g : Callgraph.t) =
  let n = Callgraph.n_nodes g in
  let roots =
    g.Callgraph.root :: List.filter (fun i -> i <> g.Callgraph.root) (List.init n Fun.id)
  in
  let subgraphs =
    List.map
      (fun r ->
        let members = Array.make n false in
        members.(r) <- true;
        let cpu, mem_mb = Quilt_cluster.Closure.resources g ~members ~root:r in
        { Types.root = r; absorbed = [ r ]; members; cpu; mem_mb })
      roots
  in
  { Types.roots; subgraphs; cost = Quilt_cluster.Metrics.baseline_cost g }

let roots_sig (g : Callgraph.t) (sol : Types.solution) =
  List.sort compare
    (List.map (fun r -> (Callgraph.node g r).Callgraph.name) sol.Types.roots)

let joint_decision ~seed =
  let wf = routed () in
  let cfg =
    {
      Config.default with
      Config.cpu_budget_ms = 6.5;
      profile_duration_us = (if !smoke then 8_000_000.0 else 20_000_000.0);
      seed = 1 + seed;
    }
  in
  let g =
    match Quilt.profile cfg ~workflows:[ wf ] wf with
    | Ok g -> g
    | Error e -> failwith (Printf.sprintf "joint-decision profiling: %s" e)
  in
  let limits = Config.limits cfg in
  let candidates =
    List.filter_map
      (fun alg -> Decision.solve ~seed:cfg.Config.seed alg g limits)
      [ Decision.Optimal; Decision.Dih; Decision.Weighted_degree ]
    @ [ singleton_solution g ]
  in
  (* Dedupe groupings several solvers agree on. *)
  let candidates =
    List.fold_left
      (fun acc sol -> if List.exists (fun s -> roots_sig g s = roots_sig g sol) acc then acc else acc @ [ sol ])
      [] candidates
  in
  (* A deliberately tight cluster: three 4-vCPU single-node racks, so a
     grouping with many groups cannot help spilling across racks while a
     merged grouping co-locates. *)
  let tight =
    Topology.make
      [
        Topology.node ~rack:0 ~vcpus:4.0 ~mem_mb:1024.0 ();
        Topology.node ~rack:1 ~vcpus:4.0 ~mem_mb:1024.0 ();
        Topology.node ~rack:2 ~vcpus:4.0 ~mem_mb:1024.0 ();
      ]
  in
  let vcpus = cfg.Config.vcpus and mem_mb = cfg.Config.mem_limit_mb in
  let price topo sol =
    let placement = Topocost.place ~seed ~vcpus ~mem_mb topo g sol in
    Topocost.priced_cost_us ~default_rtt_us:Params.default.Params.rtt_us topo placement g sol
  in
  let pick topo =
    match
      Topocost.select ~seed ~default_rtt_us:Params.default.Params.rtt_us ~vcpus ~mem_mb topo g
        candidates
    with
    | Some x -> x
    | None -> failwith "joint decision: no candidates"
  in
  let flat_sol, _, flat_cost = pick Topology.flat in
  let topo_sol, topo_placement, topo_cost = pick tight in
  let cand_rows =
    List.map
      (fun sol ->
        let sig_ = String.concat "+" (roots_sig g sol) in
        let fc = price Topology.flat sol and tc = price tight sol in
        Printf.printf "    groups {%s}: cut %d, flat %.0f us/inv, topo %.0f us/inv\n" sig_
          sol.Types.cost fc tc;
        Json.Obj
          [
            ("roots", Json.str sig_);
            ("cut_cost", Json.int sol.Types.cost);
            ("flat_priced_us", Json.Float fc);
            ("topo_priced_us", Json.Float tc);
          ])
      candidates
  in
  let differs = roots_sig g flat_sol <> roots_sig g topo_sol in
  Printf.printf "  flat pricing picks {%s} (%.0f us/inv); topology pricing picks {%s} (%.0f us/inv)%s\n"
    (String.concat "+" (roots_sig g flat_sol))
    flat_cost
    (String.concat "+" (roots_sig g topo_sol))
    topo_cost
    (if differs then "  <- the placement changed the merge decision" else "");
  Json.Obj
    [
      ("candidates", Json.List cand_rows);
      ("flat_choice", Json.str (String.concat "+" (roots_sig g flat_sol)));
      ("topo_choice", Json.str (String.concat "+" (roots_sig g topo_sol)));
      ("flat_choice_cost_us", Json.Float flat_cost);
      ("topo_choice_cost_us", Json.Float topo_cost);
      ("choice_differs", Json.Bool differs);
      ( "topo_placement",
        Json.List
          (List.map
             (fun (s, i) -> Json.Obj [ ("service", Json.str s); ("node", Json.int i) ])
             topo_placement.Placement.placed) );
    ]

(* --- main --- *)

let run () =
  section "Placement: flat world vs cluster topology (quilt_place)";
  paper_note
    [
      "the paper's testbed is six machines, but a flat simulator prices";
      "every hop identically.  With racks in the model, where a deployment";
      "lands changes what its cut edges cost (Costless) and what a node";
      "failure takes down.";
    ];
  let seed = 0 in
  let duration_us = if !smoke then 12_000_000.0 else 40_000_000.0 in
  (* Busy but not saturated: pools stay small enough that the example
     cluster's capacity is real pressure, not a brick wall. *)
  let rate_of (wf : Workflow.t) =
    if wf.Workflow.wf_name = "compose-post" then 6.0 else 30.0
  in
  let topo = Topology.example () in
  Printf.printf "  cluster: %s\n" (Topology.describe topo);

  (* 1. Flat parity: Topology.flat is the seed engine, bit for bit. *)
  subsection "flat parity (single implicit node == seed engine)";
  let wf_c = compose_post () in
  let base, _ = run_workload ~wf:wf_c ~seed ~rate:(rate_of wf_c) ~duration_us () in
  let flat, _ =
    run_workload ~wf:wf_c ~seed ~rate:(rate_of wf_c) ~duration_us
      ~topo_assign:(Topology.flat, []) ()
  in
  let parity = result_fingerprint base = result_fingerprint flat in
  Printf.printf "  flat arm vs seed engine: %s (p99 %.2f ms, %d/%d ok)\n"
    (if parity then "bit-identical" else "DIVERGED")
    (Loadgen.p99_ms base) base.Loadgen.successes base.Loadgen.offered;
  if not parity then failwith "flat topology diverged from the seed engine";

  (* 2 + 3. Policies on the example cluster: steady state, then node-kill. *)
  let one_workload (wf : Workflow.t) =
    subsection (Printf.sprintf "%s: policies on the example cluster" wf.Workflow.wf_name);
    let rate = rate_of wf in
    let rows =
      List.map
        (fun arm ->
          let placement = placement_for ~seed topo arm wf in
          if placement.Placement.rejected <> [] then
            failwith (Printf.sprintf "%s rejected services on the example cluster" arm.arm_name);
          let assign = placement.Placement.placed in
          let res, hops = run_workload ~wf ~seed ~rate ~duration_us ~topo_assign:(topo, assign) () in
          let victim = kill_target topo placement ~entry:wf.Workflow.entry in
          (* Three reboots of the same machine across the measurement
             window: enough in-flight work dies that the blast radius of
             the placement becomes a visible availability number. *)
          let kill_times =
            List.map (fun f -> duration_us *. f) [ 0.3; 0.45; 0.6; 0.75; 0.9 ]
          in
          let kres, khops =
            run_workload ~wf ~seed ~rate ~duration_us ~topo_assign:(topo, assign)
              ~kill:(victim, kill_times) ()
          in
          Printf.printf
            "  %-9s p99 %7.2f ms | hops local/rack/cross %6d/%6d/%6d | kill node %d: avail %6.2f%%, p99 %7.2f ms\n"
            arm.arm_name (Loadgen.p99_ms res) hops.Engine.hops_same_node
            hops.Engine.hops_same_rack hops.Engine.hops_cross_rack victim
            (100.0 *. Loadgen.availability kres)
            (Loadgen.p99_ms kres);
          ( arm.arm_name,
            (res, hops),
            (kres, khops, victim),
            Json.Obj
              [
                ("policy", Json.str arm.arm_name);
                ( "placement",
                  Json.List
                    (List.map
                       (fun (s, i) -> Json.Obj [ ("service", Json.str s); ("node", Json.int i) ])
                       assign) );
                ("steady", result_json res);
                ("hops", hops_json hops);
                ("killed_node", Json.int victim);
                ("node_kill", result_json kres);
                ("node_kill_hops", hops_json khops);
              ] ))
        arms
    in
    let find name = List.find (fun (n, _, _, _) -> n = name) rows in
    let _, (_, ff_hops), (ff_kill, _, _), _ = find "first-fit" in
    let _, (_, loc_hops), (loc_kill, _, _), _ = find "locality" in
    let hops_win = loc_hops.Engine.hops_cross_rack < ff_hops.Engine.hops_cross_rack in
    let avail_win = Loadgen.availability loc_kill >= Loadgen.availability ff_kill in
    Printf.printf
      "  locality vs oblivious first-fit: cross-rack hops %d vs %d (%s), node-kill availability %.2f%% vs %.2f%% (%s)\n"
      loc_hops.Engine.hops_cross_rack ff_hops.Engine.hops_cross_rack
      (if hops_win then "WIN" else "LOSS")
      (100.0 *. Loadgen.availability loc_kill)
      (100.0 *. Loadgen.availability ff_kill)
      (if avail_win then "WIN" else "LOSS");
    let tally (_, (_, hops), (kres, _, _), _) =
      (hops.Engine.hops_cross_rack, kres.Loadgen.failures)
    in
    (rows, hops_win, avail_win, tally (find "first-fit"), tally (find "locality"))
  in
  let rows_c, hops_win_c, avail_win_c, ff_c, loc_c = one_workload wf_c in
  let rows_r, hops_win_r, avail_win_r, ff_r, loc_r = one_workload (routed ()) in
  (* The headline verdict, aggregated over both workloads: strictly fewer
     cross-rack hops, and no more kill-induced failures (strictly fewer
     when the chaos drew blood at all). *)
  let ff_cross = fst ff_c + fst ff_r and loc_cross = fst loc_c + fst loc_r in
  let ff_fail = snd ff_c + snd ff_r and loc_fail = snd loc_c + snd loc_r in
  let overall_hops = loc_cross < ff_cross in
  let overall_avail = if ff_fail = 0 then loc_fail = 0 else loc_fail < ff_fail in
  Printf.printf
    "  OVERALL locality vs oblivious: cross-rack hops %d vs %d (%s), kill-run failures %d vs %d (%s)\n"
    loc_cross ff_cross
    (if overall_hops then "WIN" else "LOSS")
    loc_fail ff_fail
    (if overall_avail then "WIN" else "LOSS");

  (* 4. Joint decision. *)
  subsection "joint decision: cut edges priced by topology distance";
  let joint = joint_decision ~seed in

  write_json "BENCH_place.json"
    (Json.Obj
       [
         ("seed", Json.int seed);
         ("topology", Json.str (Topology.describe topo));
         ("flat_parity_bit_identical", Json.Bool parity);
         ("compose_post", Json.List (List.map (fun (_, _, _, j) -> j) rows_c));
         ("routed", Json.List (List.map (fun (_, _, _, j) -> j) rows_r));
         ( "locality_beats_oblivious",
           Json.Obj
             [
               ("compose_post_cross_rack", Json.Bool hops_win_c);
               ("compose_post_node_kill_availability", Json.Bool avail_win_c);
               ("routed_cross_rack", Json.Bool hops_win_r);
               ("routed_node_kill_availability", Json.Bool avail_win_r);
               ("overall_cross_rack", Json.Bool overall_hops);
               ("overall_node_kill_availability", Json.Bool overall_avail);
             ] );
         ("joint_decision", joint);
       ])
