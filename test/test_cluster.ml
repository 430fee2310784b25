(* Tests for quilt_cluster: the §4 decision algorithms.

   The two independent Phase-2 solvers — the literal Appendix-B ILP through
   the generic branch-and-bound, and the structural closure solver — are
   cross-checked on random instances.  An Appendix-A-style instance checks
   that more subgraphs can strictly beat fewer. *)

module Callgraph = Quilt_dag.Callgraph
module Gen = Quilt_dag.Gen
module Drift = Quilt_dag.Drift
module Types = Quilt_cluster.Types
module Closure = Quilt_cluster.Closure
module Encode = Quilt_cluster.Encode
module Optimal = Quilt_cluster.Optimal
module Dih = Quilt_cluster.Dih
module Heur = Quilt_cluster.Heur
module Grasp = Quilt_cluster.Grasp
module Metrics = Quilt_cluster.Metrics
module Decision = Quilt_cluster.Decision
module Sweep = Quilt_cluster.Sweep
module Rng = Quilt_util.Rng

let big = 1e9

let node id name mem cpu = { Callgraph.id; name; mem_mb = mem; cpu; mergeable = true }

let sync src dst weight = { Callgraph.src; dst; weight; kind = Callgraph.Sync }

(* A(5) calls B, C, C2 heavily; each of those makes one cheap call to a
   memory-heavy tail.  M = 70: with 3 subgraphs some heavy edge must be cut;
   with 4 subgraphs (tails as roots) only the cheap edges are cut. *)
let appendix_a_graph () =
  let nodes =
    [|
      node 0 "A" 5.0 1.0;
      node 1 "B" 15.0 1.0;
      node 2 "C" 15.0 1.0;
      node 3 "C2" 15.0 1.0;
      node 4 "D" 35.0 1.0;
      node 5 "E" 35.0 1.0;
      node 6 "E2" 35.0 1.0;
    |]
  in
  let edges = [ sync 0 1 100; sync 0 2 100; sync 0 3 100; sync 1 4 1; sync 2 5 1; sync 3 6 1 ] in
  Callgraph.make ~nodes ~edges ~root:0 ~invocations:1

let appendix_a_limits = { Types.max_cpu = big; max_mem_mb = 70.0 }

let best_cost_at_k g lim k =
  let n = Callgraph.n_nodes g in
  let non_roots = List.filter (fun v -> v <> g.Callgraph.root) (List.init n (fun i -> i)) in
  let best = ref None in
  List.iter
    (fun extra ->
      let roots = g.Callgraph.root :: extra in
      match Closure.solve_exact g lim ~roots with
      | None -> ()
      | Some sol -> (
          match !best with
          | Some c when sol.Types.cost >= c -> ()
          | _ -> best := Some sol.Types.cost))
    (Sweep.combinations non_roots (k - 1));
  !best

let test_appendix_a_more_subgraphs_win () =
  let g = appendix_a_graph () in
  let lim = appendix_a_limits in
  Alcotest.(check (option int)) "k=1 infeasible" None (best_cost_at_k g lim 1);
  Alcotest.(check (option int)) "k=2 infeasible" None (best_cost_at_k g lim 2);
  (match best_cost_at_k g lim 3 with
  | None -> Alcotest.fail "k=3 should be feasible"
  | Some c3 -> (
      Alcotest.(check bool) "k=3 must cut a heavy edge" true (c3 >= 100);
      match best_cost_at_k g lim 4 with
      | None -> Alcotest.fail "k=4 should be feasible"
      | Some c4 ->
          Alcotest.(check int) "k=4 cuts only the cheap edges" 3 c4;
          Alcotest.(check bool) "more subgraphs strictly better" true (c4 < c3)));
  match Optimal.solve g lim with
  | None -> Alcotest.fail "optimal should find a grouping"
  | Some sol ->
      Alcotest.(check int) "optimal cost" 3 sol.Types.cost;
      Alcotest.(check int) "optimal uses 4 subgraphs" 4 (List.length sol.Types.roots)

(* --- Closure mechanics --- *)

let chain_graph () =
  (* r -> a -> b, with b also called by r. *)
  let nodes = [| node 0 "r" 10.0 1.0; node 1 "a" 10.0 1.0; node 2 "b" 10.0 1.0 |] in
  let edges = [ sync 0 1 5; sync 1 2 4; sync 0 2 3 ] in
  Callgraph.make ~nodes ~edges ~root:0 ~invocations:1

let test_nr_closure_stops_at_roots () =
  let g = chain_graph () in
  let is_root = [| true; false; true |] in
  let c = Closure.nr_closure g ~is_root 0 in
  Alcotest.(check (array bool)) "closure of r stops at b" [| true; true; false |] c;
  let c1 = Closure.nr_closure g ~is_root 1 in
  Alcotest.(check (array bool)) "closure of a stops at b" [| false; true; false |] c1

let test_nr_closure_whole_graph () =
  let g = chain_graph () in
  let is_root = [| true; false; false |] in
  let c = Closure.nr_closure g ~is_root 0 in
  Alcotest.(check (array bool)) "root closure covers all" [| true; true; true |] c

let test_resources_sync_memory_counts_per_edge () =
  let g = chain_graph () in
  let members = [| true; true; true |] in
  let cpu, mem = Closure.resources g ~members ~root:0 in
  (* cpu = 1 + 5*1 (r->a) + 4*1 (a->b) + 3*1 (r->b) = 13.
     mem = 10 + 10 (a) + 10 (b via a->b) + 10 (b via r->b) = 40. *)
  Alcotest.(check (float 1e-9)) "cpu" 13.0 cpu;
  Alcotest.(check (float 1e-9)) "mem" 40.0 mem

let test_resources_async_memory_scales () =
  let nodes = [| node 0 "r" 10.0 1.0; node 1 "a" 20.0 2.0 |] in
  let edges = [ { Callgraph.src = 0; dst = 1; weight = 4; kind = Callgraph.Async } ] in
  let g = Callgraph.make ~nodes ~edges ~root:0 ~invocations:1 in
  let cpu, mem = Closure.resources g ~members:[| true; true |] ~root:0 in
  (* cpu = 1 + 4*2 = 9; mem = 10 + 20 + 3*20 = 90. *)
  Alcotest.(check (float 1e-9)) "cpu" 9.0 cpu;
  Alcotest.(check (float 1e-9)) "async mem" 90.0 mem

let test_diamond_async_memory () =
  (* §4.1: even sync (B,D)/(C,D) edges can be concurrent when (A,B)/(A,C)
     are async, so memory counts D once per in-edge. *)
  let g = Gen.diamond () in
  let members = [| true; true; true; true |] in
  let _, mem = Closure.resources g ~members ~root:0 in
  (* 32 (A) + 32 (B) + 32 (C) + 32 (D via B) + 32 (D via C) = 160. *)
  Alcotest.(check (float 1e-9)) "diamond mem" 160.0 mem

let test_solve_exact_single_root_when_fits () =
  let g = chain_graph () in
  let lim = { Types.max_cpu = big; max_mem_mb = 1000.0 } in
  match Closure.solve_exact g lim ~roots:[ 0 ] with
  | None -> Alcotest.fail "should be feasible"
  | Some sol ->
      Alcotest.(check int) "cost 0 when whole graph merges" 0 sol.Types.cost;
      Alcotest.(check int) "one subgraph" 1 (List.length sol.Types.subgraphs)

let test_solve_exact_infeasible_when_too_small () =
  let g = chain_graph () in
  let lim = { Types.max_cpu = big; max_mem_mb = 5.0 } in
  Alcotest.(check bool) "even singletons do not fit" true (Closure.solve_exact g lim ~roots:[ 0; 1; 2 ] = None)

let test_solve_exact_absorption () =
  (* Roots {r, b}: G_r can absorb b to internalize both edges into b. *)
  let g = chain_graph () in
  let lim = { Types.max_cpu = big; max_mem_mb = 1000.0 } in
  match Closure.solve_exact g lim ~roots:[ 0; 2 ] with
  | None -> Alcotest.fail "feasible"
  | Some sol -> Alcotest.(check int) "absorbing b removes all cuts" 0 sol.Types.cost

let test_solve_exact_cut_when_absorption_infeasible () =
  let g = chain_graph () in
  (* Memory 35: G_r = {r,a} is 20; absorbing b adds 10 (via a->b) + 10 (via
     r->b) = 40 total > 35.  So edges into b (weight 4+3) are cut. *)
  let lim = { Types.max_cpu = big; max_mem_mb = 35.0 } in
  match Closure.solve_exact g lim ~roots:[ 0; 2 ] with
  | None -> Alcotest.fail "feasible"
  | Some sol -> Alcotest.(check int) "cost = weights into b" 7 sol.Types.cost

let test_root_set_feasible () =
  let g = appendix_a_graph () in
  Alcotest.(check bool) "k=4 relief set feasible" true
    (Closure.root_set_feasible g appendix_a_limits ~roots:[ 0; 4; 5; 6 ]);
  Alcotest.(check bool) "root alone infeasible" false
    (Closure.root_set_feasible g appendix_a_limits ~roots:[ 0 ])

(* --- Cross-check: closure solver vs literal ILP --- *)

let random_instance seed =
  let rng = Rng.create seed in
  let n = Rng.int_in rng 3 7 in
  let g, lims = Gen.random_rdag rng ~n () in
  let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
  (* Random root set of size <= 3 including the graph root. *)
  let extras =
    List.filter (fun v -> v <> g.Callgraph.root && Rng.chance rng 0.4) (List.init n (fun i -> i))
  in
  let extras = List.filteri (fun i _ -> i < 2) extras in
  (g, lim, g.Callgraph.root :: extras)

let prop_closure_matches_ilp =
  QCheck.Test.make ~name:"closure exact solver = literal Appendix-B ILP" ~count:40
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let g, lim, roots = random_instance seed in
      let a = Closure.solve_exact g lim ~roots in
      let b = Encode.solve_ilp g lim ~roots in
      match a, b with
      | None, None -> true
      | Some sa, Some sb -> sa.Types.cost = sb.Types.cost
      | Some _, None | None, Some _ -> false)

let prop_exact_solutions_valid =
  QCheck.Test.make ~name:"exact solutions pass full validation" ~count:60
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let g, lim, roots = random_instance seed in
      match Closure.solve_exact g lim ~roots with
      | None -> true
      | Some sol -> Metrics.solution_valid g lim sol = Ok ())

let prop_greedy_never_beats_exact =
  QCheck.Test.make ~name:"greedy cost >= exact cost, and greedy is valid" ~count:40
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let g, lim, roots = random_instance seed in
      match Closure.solve_exact g lim ~roots, Closure.solve_greedy g lim ~roots with
      | None, None -> true
      | Some e, Some gr -> gr.Types.cost >= e.Types.cost && Metrics.solution_valid g lim gr = Ok ()
      | None, Some _ -> false (* greedy found something exact missed: impossible *)
      | Some _, None -> false (* greedy must find at least the minimal assignment *))

let prop_optimal_beats_heuristics =
  QCheck.Test.make ~name:"optimal <= DIH <= baseline; all valid" ~count:25
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 4 8 in
      let g, lims = Gen.random_rdag rng ~n () in
      let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
      match Optimal.solve g lim, Dih.solve g lim with
      | Some o, Some d ->
          o.Types.cost <= d.Types.cost
          && d.Types.cost <= Metrics.baseline_cost g
          && Metrics.solution_valid g lim o = Ok ()
          && Metrics.solution_valid g lim d = Ok ()
      | None, None -> true
      | Some _, None -> false (* DIH has an all-roots fallback *)
      | None, Some _ -> false)

(* --- DIH internals --- *)

let test_dih_scores_favor_heavy_gateways () =
  let g = appendix_a_graph () in
  let s = Dih.scores g appendix_a_limits in
  (* The tails D, E, E2 carry heavy memory; B/C/C2 gate one tail each.  The
     gateway score of B must exceed the root's (always 0). *)
  Alcotest.(check (float 0.0)) "root scores 0" 0.0 s.(0);
  Alcotest.(check bool) "tail D scores above 0" true (s.(4) > 0.0);
  (* B gates D: downstream demand includes D, so B >= D on the gamma term,
     and B has weighted in-degree 100 on top. *)
  Alcotest.(check bool) "gateway B beats its tail D" true (s.(1) > s.(4))

let test_dih_downstream_demand () =
  let g = chain_graph () in
  let d = Dih.downstream_demand g in
  (* b: just itself. *)
  let cpu_b, mem_b = d.(2) in
  Alcotest.(check (float 1e-9)) "b cpu" 1.0 cpu_b;
  Alcotest.(check (float 1e-9)) "b mem" 10.0 mem_b;
  (* a: a + 4 calls to b. *)
  let cpu_a, mem_a = d.(1) in
  Alcotest.(check (float 1e-9)) "a cpu" 5.0 cpu_a;
  Alcotest.(check (float 1e-9)) "a mem" 20.0 mem_a;
  (* r: whole graph. *)
  let cpu_r, mem_r = d.(0) in
  Alcotest.(check (float 1e-9)) "r cpu" 13.0 cpu_r;
  Alcotest.(check (float 1e-9)) "r mem" 40.0 mem_r

let test_dih_candidate_pool_size () =
  let g = appendix_a_graph () in
  let pool = Dih.candidate_pool g appendix_a_limits 3 in
  Alcotest.(check int) "pool size" 3 (List.length pool);
  Alcotest.(check bool) "root not in pool" true (not (List.mem 0 pool))

let test_dih_finds_appendix_a_optimum () =
  let g = appendix_a_graph () in
  match Dih.solve g appendix_a_limits with
  | None -> Alcotest.fail "DIH should find a grouping"
  | Some sol -> Alcotest.(check int) "DIH matches optimal here" 3 sol.Types.cost

let test_weighted_degree_worse_on_appendix_a () =
  let g = appendix_a_graph () in
  match Heur.solve_weighted_degree ~pool_size:3 g appendix_a_limits with
  | None -> Alcotest.fail "weighted degree should still find something"
  | Some sol ->
      (* The in-degree heuristic ranks B, C, C2 (in-weight 100) over the
         memory-heavy tails (in-weight 1), so with a tight pool it cuts
         heavy edges. *)
      Alcotest.(check bool) "simple heuristic pays >= 100" true (sol.Types.cost >= 100)

(* --- Heuristic scores --- *)

let test_betweenness_on_chain () =
  let g = Gen.line_graph ~n:5 ~cpu:1.0 ~mem_mb:10.0 ~weight:1 in
  let bc = Heur.betweenness_scores g in
  Alcotest.(check bool) "middle beats ends" true (bc.(2) > bc.(0) && bc.(2) > bc.(4))

let test_betweenness_solver_valid () =
  let rng = Rng.create 12 in
  let g, lims = Gen.random_rdag rng ~n:9 () in
  let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
  match Heur.solve_betweenness g lim with
  | Some sol ->
      Alcotest.(check bool) "valid" true (Metrics.solution_valid g lim sol = Ok ());
      Alcotest.(check bool) "no worse than baseline" true (sol.Types.cost <= Metrics.baseline_cost g)
  | None -> Alcotest.fail "betweenness solver should find something (fallback on)"

let test_weighted_out_degree () =
  let g = appendix_a_graph () in
  let s = Heur.weighted_out_degree_scores g in
  Alcotest.(check (float 1e-9)) "A out-degree" 300.0 s.(0);
  Alcotest.(check (float 1e-9)) "D out-degree" 0.0 s.(4)

(* --- GRASP --- *)

let test_grasp_solves_appendix_a () =
  let g = appendix_a_graph () in
  match Grasp.solve (Rng.create 42) g appendix_a_limits with
  | None -> Alcotest.fail "grasp should find a grouping"
  | Some sol ->
      Alcotest.(check bool) "valid" true (Metrics.solution_valid g appendix_a_limits sol = Ok ());
      Alcotest.(check bool) "beats baseline" true (sol.Types.cost < Metrics.baseline_cost g)

let test_grasp_on_large_graph () =
  let rng = Rng.create 7 in
  let g, lims = Gen.random_rdag rng ~n:120 () in
  let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
  match Grasp.solve (Rng.create 3) g lim with
  | None -> Alcotest.fail "grasp should handle 120 nodes"
  | Some sol ->
      Alcotest.(check bool) "valid at scale" true (Metrics.solution_valid g lim sol = Ok ());
      Alcotest.(check bool) "beats baseline at scale" true (sol.Types.cost < Metrics.baseline_cost g)

(* --- The opt-in bit (non-mergeable functions, §1.1) --- *)

let pin g name =
  Callgraph.with_mergeable g (fun n -> n <> name)

let test_non_mergeable_forces_singleton () =
  let g = chain_graph () in
  let lim = { Types.max_cpu = big; max_mem_mb = 1000.0 } in
  (* Everything merges when all functions opt in... *)
  (match Closure.solve_exact g lim ~roots:[ 0 ] with
  | Some sol -> Alcotest.(check int) "all merge" 0 sol.Types.cost
  | None -> Alcotest.fail "feasible");
  (* ...but pinning `a` forces it into its own container: both edges into a
     and its call to b become remote (b must also be a root, though r may
     absorb it... r has no direct edge path to b without a, so b stays
     separate too). *)
  let g' = pin g "a" in
  match Closure.solve_exact g' lim ~roots:[ 0 ] with
  | None -> Alcotest.fail "still feasible"
  | Some sol ->
      Alcotest.(check bool) "valid under the opt-in rule" true (Metrics.solution_valid g' lim sol = Ok ());
      let a_groups =
        List.filter (fun sg -> sg.Types.members.(1)) sol.Types.subgraphs
      in
      List.iter
        (fun sg ->
          Alcotest.(check int) "a is alone" 1
            (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 sg.Types.members))
        a_groups;
      Alcotest.(check bool) "cost reflects the cuts" true (sol.Types.cost > 0)

let test_non_mergeable_forced_roots () =
  let g = pin (chain_graph ()) "a" in
  (* a and its callee b are forced roots. *)
  Alcotest.(check (list int)) "forced roots" [ 1; 2 ] (Closure.forced_roots g)

let test_non_mergeable_ilp_agrees () =
  let g = pin (chain_graph ()) "a" in
  let lim = { Types.max_cpu = big; max_mem_mb = 1000.0 } in
  match Closure.solve_exact g lim ~roots:[ 0 ], Encode.solve_ilp g lim ~roots:[ 0; 1; 2 ] with
  | Some a, Some b -> Alcotest.(check int) "solvers agree under pinning" a.Types.cost b.Types.cost
  | _ -> Alcotest.fail "both should be feasible"

let prop_non_mergeable_solutions_valid =
  QCheck.Test.make ~name:"random pinning still yields valid solutions" ~count:40
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 4 8 in
      let g, lims = Gen.random_rdag rng ~n () in
      let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
      (* Pin one random non-root vertex. *)
      let pinned = Rng.int_in rng 1 (n - 1) in
      let g = Callgraph.with_mergeable g (fun name -> name <> Printf.sprintf "f%d" pinned) in
      match Decision.solve Decision.Dih g lim with
      | Some sol -> Metrics.solution_valid g lim sol = Ok ()
      | None -> true (* pinning can make tight instances infeasible *))

(* --- Metrics --- *)

let test_baseline_cost () =
  let g = appendix_a_graph () in
  Alcotest.(check int) "sum of weights" 303 (Metrics.baseline_cost g)

let test_optimality_gap () =
  Alcotest.(check (float 1e-9)) "optimal has gap 0" 0.0 (Metrics.optimality_gap ~cost_h:3 ~cost_o:3 ~cost_b:303);
  Alcotest.(check (float 1e-9)) "baseline-quality has gap 1" 1.0
    (Metrics.optimality_gap ~cost_h:303 ~cost_o:3 ~cost_b:303);
  Alcotest.(check (float 1e-9)) "degenerate denominator" 0.0 (Metrics.optimality_gap ~cost_h:5 ~cost_o:5 ~cost_b:5)

let test_solution_valid_detects_bad_cost () =
  let g = chain_graph () in
  let lim = { Types.max_cpu = big; max_mem_mb = 1000.0 } in
  match Closure.solve_exact g lim ~roots:[ 0 ] with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      let broken = { sol with Types.cost = sol.Types.cost + 1 } in
      Alcotest.(check bool) "detects cost mismatch" true (Metrics.solution_valid g lim broken <> Ok ())

let test_solution_valid_detects_overflow () =
  let g = chain_graph () in
  let lim = { Types.max_cpu = big; max_mem_mb = 1000.0 } in
  match Closure.solve_exact g lim ~roots:[ 0 ] with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      let tight = { Types.max_cpu = big; max_mem_mb = 30.0 } in
      Alcotest.(check bool) "detects memory overflow" true (Metrics.solution_valid g tight sol <> Ok ())

(* --- Decision front door --- *)

let test_decision_auto_small_graph () =
  let g = appendix_a_graph () in
  match Decision.auto g appendix_a_limits with
  | None -> Alcotest.fail "auto should solve"
  | Some sol -> Alcotest.(check int) "auto picks optimal on small graphs" 3 sol.Types.cost

(* --- exact-solver size caps and dispatcher consistency --- *)

let test_exact_root_cap_boundary () =
  (* A line graph with every vertex a root and limits that admit only
     singleton groups: trivial instances, sized exactly at the cap. *)
  let mk k =
    let g = Quilt_dag.Gen.line_graph ~n:k ~cpu:1.0 ~mem_mb:10.0 ~weight:1 in
    let lim = { Types.max_cpu = 1.5; max_mem_mb = 15.0 } in
    (g, lim, List.init k (fun i -> i))
  in
  let g, lim, roots = mk Closure.exact_max_roots in
  (match Closure.solve_exact g lim ~roots with
  | Some sol -> Alcotest.(check int) "all edges cut at the cap" (Metrics.baseline_cost g) sol.Types.cost
  | None -> Alcotest.fail "instance at exact_max_roots must be solvable");
  let g, lim, roots = mk (Closure.exact_max_roots + 1) in
  (match Closure.solve_exact g lim ~roots with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument above exact_max_roots");
  (* The dispatcher must route the same instance to the greedy solver
     instead of tripping the exact solver's guard. *)
  match Closure.solve g lim ~roots with
  | Some sol -> Alcotest.(check bool) "greedy fallback valid" true (Metrics.solution_valid g lim sol = Ok ())
  | None -> Alcotest.fail "dispatcher must fall back to solve_greedy above the cap"

let test_exact_root_edge_cap () =
  (* Few roots but more root-targeted edges than fit in one cut mask: 0 fans
     out to [fan] vertices that all call root 1. *)
  let fan = Closure.exact_max_root_edges + 1 in
  let n = fan + 2 in
  let nodes = Array.init n (fun i -> node i (Printf.sprintf "f%d" i) 1.0 0.01) in
  let edges = List.concat (List.init fan (fun i -> [ sync 0 (i + 2) 1; sync (i + 2) 1 1 ])) in
  let g = Callgraph.make ~nodes ~edges ~root:0 ~invocations:1 in
  let lim = { Types.max_cpu = big; max_mem_mb = big } in
  let roots = [ 0; 1 ] in
  (match Closure.solve_exact g lim ~roots with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument above exact_max_root_edges");
  match Closure.solve g lim ~roots with
  | Some sol -> Alcotest.(check bool) "greedy fallback valid" true (Metrics.solution_valid g lim sol = Ok ())
  | None -> Alcotest.fail "dispatcher must fall back to solve_greedy above the edge cap"

(* --- incremental greedy vs rebuild-from-scratch reference --- *)

(* The pre-optimization greedy solver, transcribed as a reference: every
   candidate move is re-scored by rebuilding members and the full joint cost
   from scratch through the public closure API.  The incremental solver must
   return exactly the same solution (same absorb choices, members, cost). *)
let reference_greedy (g : Callgraph.t) (lim : Types.limits) ~roots =
  let n = Callgraph.n_nodes g in
  let roots =
    let seen = Hashtbl.create 8 in
    let uniq =
      List.filter
        (fun r -> if Hashtbl.mem seen r then false else (Hashtbl.add seen r (); true))
        (roots @ Closure.forced_roots g)
    in
    let uniq = if List.mem g.Callgraph.root uniq then uniq else g.Callgraph.root :: uniq in
    g.Callgraph.root :: List.filter (fun r -> r <> g.Callgraph.root) uniq
  in
  let is_root = Array.make n false in
  List.iter (fun r -> is_root.(r) <- true) roots;
  let closures = Array.make n [||] in
  List.iter (fun r -> closures.(r) <- Closure.nr_closure g ~is_root r) roots;
  let feasible (cpu, mem) = cpu <= lim.Types.max_cpu +. 1e-9 && mem <= lim.Types.max_mem_mb +. 1e-9 in
  let connected ~members ~root =
    let ok = ref true in
    Array.iteri
      (fun j in_m ->
        if in_m && j <> root then
          if not (List.exists (fun e -> members.(e.Callgraph.src)) (Callgraph.preds g j)) then
            ok := false)
      members;
    !ok
  in
  let members_of absorb =
    let m = Array.make n false in
    List.iter (fun s -> Array.iteri (fun j b -> if b then m.(j) <- true) closures.(s)) absorb;
    m
  in
  let absorb = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace absorb r [ r ]) roots;
  let members_for r = members_of (Hashtbl.find absorb r) in
  let joint_cost () =
    let cost = ref 0 in
    List.iter
      (fun (e : Callgraph.edge) ->
        let cut =
          List.exists
            (fun r ->
              let members = members_for r and a = Hashtbl.find absorb r in
              members.(e.Callgraph.src)
              && not (List.mem e.Callgraph.dst a || members.(e.Callgraph.dst)))
            roots
        in
        if cut then cost := !cost + e.Callgraph.weight)
      g.Callgraph.edges;
    !cost
  in
  let all_feasible () =
    List.for_all
      (fun r ->
        let members = members_for r in
        connected ~members ~root:r && feasible (Closure.resources g ~members ~root:r))
      roots
  in
  if not (all_feasible ()) then None
  else begin
    let cost = ref (joint_cost ()) in
    let improved = ref true in
    while !improved do
      improved := false;
      let best_move = ref None in
      List.iter
        (fun r ->
          let current = Hashtbl.find absorb r in
          let members = members_for r in
          List.iter
            (fun j ->
              if
                j <> r
                && (not (List.mem j current))
                && (Callgraph.node g r).Callgraph.mergeable
                && (Callgraph.node g j).Callgraph.mergeable
              then begin
                let has_edge =
                  List.exists
                    (fun (e : Callgraph.edge) -> e.Callgraph.dst = j && members.(e.Callgraph.src))
                    g.Callgraph.edges
                in
                if has_edge then begin
                  Hashtbl.replace absorb r (j :: current);
                  let m' = members_for r in
                  let ok =
                    connected ~members:m' ~root:r
                    && feasible (Closure.resources g ~members:m' ~root:r)
                  in
                  (if ok then begin
                     let c' = joint_cost () in
                     match !best_move with
                     | Some (_, _, best_c) when c' >= best_c -> ()
                     | _ -> if c' < !cost then best_move := Some (r, j, c')
                   end);
                  Hashtbl.replace absorb r current
                end
              end)
            roots)
        roots;
      match !best_move with
      | Some (r, j, c') ->
          Hashtbl.replace absorb r (j :: Hashtbl.find absorb r);
          cost := c';
          improved := true
      | None -> ()
    done;
    let subgraphs =
      List.map
        (fun r ->
          let members = members_for r in
          let cpu, mem = Closure.resources g ~members ~root:r in
          { Types.root = r; absorbed = Hashtbl.find absorb r; members; cpu; mem_mb = mem })
        roots
    in
    Some { Types.roots; subgraphs; cost = joint_cost () }
  end

let prop_incremental_greedy_matches_reference =
  QCheck.Test.make ~name:"incremental greedy = rebuild-from-scratch reference" ~count:60
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 4 30 in
      let g, lims = Gen.random_rdag rng ~n () in
      let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
      let extras =
        List.filter
          (fun v -> v <> g.Callgraph.root && Rng.chance rng 0.35)
          (List.init n (fun i -> i))
      in
      let roots = g.Callgraph.root :: extras in
      match reference_greedy g lim ~roots, Closure.solve_greedy g lim ~roots with
      | None, None -> true
      | Some a, Some b ->
          a.Types.cost = b.Types.cost
          && List.length a.Types.subgraphs = List.length b.Types.subgraphs
          && List.for_all2
               (fun (sa : Types.subgraph) (sb : Types.subgraph) ->
                 sa.Types.root = sb.Types.root
                 && sa.Types.members = sb.Types.members
                 && List.sort compare sa.Types.absorbed = List.sort compare sb.Types.absorbed)
               a.Types.subgraphs b.Types.subgraphs
      | Some _, None | None, Some _ -> false)

(* --- parallel decision subsystem: differential pinning --- *)

let solution_sig (s : Types.solution) =
  ( s.Types.cost,
    s.Types.roots,
    List.map
      (fun (sg : Types.subgraph) ->
        (sg.Types.root, List.sort compare sg.Types.absorbed, sg.Types.members))
      s.Types.subgraphs )

let same_solution a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> solution_sig a = solution_sig b
  | Some _, None | None, Some _ -> false

let prop_exact_par_matches_exact =
  QCheck.Test.make ~name:"solve_exact_par = solve_exact (1/2/4 domains, warm on/off)" ~count:30
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 4 12 in
      let g, lims = Gen.random_rdag rng ~n () in
      let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
      let extras =
        List.filter (fun v -> v <> g.Callgraph.root && Rng.chance rng 0.5) (List.init n (fun i -> i))
      in
      let roots = g.Callgraph.root :: extras in
      let seq = Closure.solve_exact g lim ~roots in
      List.for_all
        (fun domains ->
          List.for_all
            (fun warm ->
              same_solution (Closure.solve_exact_par ~domains ~warm g lim ~roots) seq)
            [ true; false ])
        [ 1; 2; 4 ])

let prop_portfolio_auto_matches_sequential =
  QCheck.Test.make ~name:"portfolio auto = sequential auto (2 and 4 domains)" ~count:15
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 5 13 in
      let g, lims = Gen.random_rdag rng ~n () in
      let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
      let seq = Decision.auto ~domains:1 g lim in
      List.for_all (fun d -> same_solution (Decision.auto ~domains:d g lim) seq) [ 2; 4 ])

let test_portfolio_all_regimes () =
  (* One instance per auto_algorithm regime: exact portfolio (n <= 12),
     DIH sweep (n <= 60), GRASP (beyond). *)
  List.iter
    (fun n ->
      let rng = Rng.create (2000 + n) in
      let g, lims = Gen.random_rdag rng ~n () in
      let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
      let seq = Decision.auto ~domains:1 g lim in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: portfolio output identical" n)
        true
        (same_solution (Decision.auto ~domains:4 g lim) seq))
    [ 10; 30; 70 ]

let test_race_surfaces_arm_failure () =
  let incumbent = Atomic.make max_int in
  let ok () = None in
  let boom () = failwith "arm boom" in
  Alcotest.check_raises "a failing arm re-raises in the caller" (Failure "arm boom") (fun () ->
      ignore (Decision.race ~incumbent ~arms:[ ok; boom ] (fun () -> 42)));
  Alcotest.check_raises "so does a failing primary" (Failure "primary boom") (fun () ->
      ignore (Decision.race ~incumbent ~arms:[ ok ] (fun () -> failwith "primary boom")));
  let primary, arms = Decision.race ~incumbent ~arms:[ ok; ok ] (fun () -> 7) in
  Alcotest.(check int) "primary result" 7 primary;
  Alcotest.(check int) "one result per arm" 2 (List.length arms)

let test_portfolio_budget () =
  (* The budget is wall-clock time: a generous one never cuts the exact arm
     short (the result is the sequential one), and even a budget that has
     already expired returns a valid solution from some arm. *)
  let rng = Rng.create 77 in
  let g, lims = Gen.random_rdag rng ~n:10 () in
  let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
  let seq = Decision.auto ~domains:1 g lim in
  Alcotest.(check bool) "generous budget = sequential" true
    (same_solution (Decision.auto ~domains:2 ~budget_s:600.0 g lim) seq);
  match Decision.auto ~domains:2 ~budget_s:0.0 g lim with
  | None -> Alcotest.(check bool) "expired budget: infeasible only if sequential is" true (seq = None)
  | Some s ->
      Alcotest.(check bool) "expired budget: still a valid solution" true
        (Metrics.solution_valid g lim s = Ok ())

let resource_drifted_graph rng (g : Callgraph.t) =
  let n = Callgraph.n_nodes g in
  let victim = Rng.int_in rng 0 (n - 1) in
  let nodes =
    Array.map
      (fun (nd : Callgraph.node) ->
        if nd.Callgraph.id = victim then { nd with Callgraph.cpu = nd.Callgraph.cpu *. 1.6 }
        else nd)
      g.Callgraph.nodes
  in
  Callgraph.make ~nodes ~edges:g.Callgraph.edges ~root:g.Callgraph.root
    ~invocations:g.Callgraph.invocations

let prop_incremental_matches_touch_all =
  QCheck.Test.make ~name:"incremental re-decision = everything-touched path" ~count:20
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 5 25 in
      let g, lims = Gen.random_rdag rng ~n () in
      let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
      match Decision.auto ~domains:1 g lim with
      | None -> true
      | Some prev ->
          let g' = resource_drifted_graph rng g in
          let report = Drift.detect ~threshold:0.3 g g' in
          let inc = Decision.resolve_incremental ~prev_graph:g ~prev ~report g' lim in
          let all =
            Decision.resolve_incremental ~prev_graph:g ~prev ~report:(Drift.touch_all g') g' lim
          in
          same_solution inc all
          && (match inc with
             | None -> true
             | Some s -> Metrics.solution_valid g' lim s = Ok ()))

let test_sequential_escape_hatch () =
  let saved = Sys.getenv_opt "QUILT_SEQUENTIAL" in
  let restore () =
    Unix.putenv "QUILT_SEQUENTIAL" (match saved with Some v -> v | None -> "")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "QUILT_SEQUENTIAL" "";
      let rng = Rng.create 4242 in
      let g, lims = Gen.random_rdag rng ~n:10 () in
      let lim = { Types.max_cpu = lims.Gen.max_cpu; max_mem_mb = lims.Gen.max_mem_mb } in
      let seq = Decision.auto ~domains:1 g lim in
      (* Unforced, the portfolio runs incumbent-driven searches... *)
      let c0 = Closure.bounded_search_count () in
      let unforced = Decision.auto ~domains:4 g lim in
      Alcotest.(check bool) "portfolio uses the bounded search" true
        (Closure.bounded_search_count () > c0);
      Alcotest.(check bool) "portfolio output identical" true (same_solution unforced seq);
      (* ...and QUILT_SEQUENTIAL=1 must keep it off that path end-to-end. *)
      Unix.putenv "QUILT_SEQUENTIAL" "1";
      let c1 = Closure.bounded_search_count () in
      let forced = Decision.auto ~domains:4 g lim in
      ignore (Closure.solve_exact_par ~domains:4 g lim ~roots:[ g.Callgraph.root ]);
      Alcotest.(check int) "no incumbent-driven search ran" c1 (Closure.bounded_search_count ());
      Alcotest.(check bool) "forced result = sequential auto" true (same_solution forced seq))

let test_decision_names () =
  Alcotest.(check string) "optimal" "optimal" (Decision.algorithm_name Decision.Optimal);
  Alcotest.(check string) "dih" "downstream-impact" (Decision.algorithm_name Decision.Dih)

let test_combinations () =
  Alcotest.(check int) "C(5,2)" 10 (List.length (Sweep.combinations [ 1; 2; 3; 4; 5 ] 2));
  Alcotest.(check (list (list int))) "C(n,0)" [ [] ] (Sweep.combinations [ 1; 2 ] 0);
  Alcotest.(check (list (list int))) "C(2,3) empty" [] (Sweep.combinations [ 1; 2 ] 3)

let suite =
  [
    ( "cluster.closure",
      [
        Alcotest.test_case "nr_closure stops at roots" `Quick test_nr_closure_stops_at_roots;
        Alcotest.test_case "nr_closure whole graph" `Quick test_nr_closure_whole_graph;
        Alcotest.test_case "resources: sync memory per edge" `Quick test_resources_sync_memory_counts_per_edge;
        Alcotest.test_case "resources: async memory scales" `Quick test_resources_async_memory_scales;
        Alcotest.test_case "diamond memory accounting" `Quick test_diamond_async_memory;
        Alcotest.test_case "single root merge" `Quick test_solve_exact_single_root_when_fits;
        Alcotest.test_case "infeasible when too small" `Quick test_solve_exact_infeasible_when_too_small;
        Alcotest.test_case "absorption internalizes edges" `Quick test_solve_exact_absorption;
        Alcotest.test_case "cut when absorption infeasible" `Quick test_solve_exact_cut_when_absorption_infeasible;
        Alcotest.test_case "root_set_feasible" `Quick test_root_set_feasible;
        Alcotest.test_case "exact root cap boundary" `Quick test_exact_root_cap_boundary;
        Alcotest.test_case "exact root-edge cap" `Quick test_exact_root_edge_cap;
        QCheck_alcotest.to_alcotest prop_closure_matches_ilp;
        QCheck_alcotest.to_alcotest prop_exact_solutions_valid;
        QCheck_alcotest.to_alcotest prop_greedy_never_beats_exact;
        QCheck_alcotest.to_alcotest prop_incremental_greedy_matches_reference;
      ] );
    ( "cluster.optimal",
      [
        Alcotest.test_case "appendix A: more subgraphs win" `Slow test_appendix_a_more_subgraphs_win;
        QCheck_alcotest.to_alcotest prop_optimal_beats_heuristics;
      ] );
    ( "cluster.dih",
      [
        Alcotest.test_case "scores favor heavy gateways" `Quick test_dih_scores_favor_heavy_gateways;
        Alcotest.test_case "downstream demand" `Quick test_dih_downstream_demand;
        Alcotest.test_case "candidate pool" `Quick test_dih_candidate_pool_size;
        Alcotest.test_case "finds appendix A optimum" `Quick test_dih_finds_appendix_a_optimum;
        Alcotest.test_case "weighted degree worse on appendix A" `Quick test_weighted_degree_worse_on_appendix_a;
      ] );
    ( "cluster.heur",
      [
        Alcotest.test_case "betweenness on chain" `Quick test_betweenness_on_chain;
        Alcotest.test_case "weighted out-degree" `Quick test_weighted_out_degree;
        Alcotest.test_case "betweenness solver" `Quick test_betweenness_solver_valid;
      ] );
    ( "cluster.grasp",
      [
        Alcotest.test_case "solves appendix A" `Quick test_grasp_solves_appendix_a;
        Alcotest.test_case "large graph" `Slow test_grasp_on_large_graph;
      ] );
    ( "cluster.optin",
      [
        Alcotest.test_case "non-mergeable forces singleton" `Quick test_non_mergeable_forces_singleton;
        Alcotest.test_case "forced roots" `Quick test_non_mergeable_forced_roots;
        Alcotest.test_case "ilp agrees under pinning" `Quick test_non_mergeable_ilp_agrees;
        QCheck_alcotest.to_alcotest prop_non_mergeable_solutions_valid;
      ] );
    ( "cluster.metrics",
      [
        Alcotest.test_case "baseline cost" `Quick test_baseline_cost;
        Alcotest.test_case "optimality gap" `Quick test_optimality_gap;
        Alcotest.test_case "detects bad cost" `Quick test_solution_valid_detects_bad_cost;
        Alcotest.test_case "detects overflow" `Quick test_solution_valid_detects_overflow;
      ] );
    ( "cluster.decision",
      [
        Alcotest.test_case "auto on small graph" `Quick test_decision_auto_small_graph;
        Alcotest.test_case "algorithm names" `Quick test_decision_names;
        Alcotest.test_case "combinations" `Quick test_combinations;
      ] );
    ( "cluster.parallel",
      [
        QCheck_alcotest.to_alcotest prop_exact_par_matches_exact;
        QCheck_alcotest.to_alcotest prop_portfolio_auto_matches_sequential;
        Alcotest.test_case "portfolio parity across regimes" `Slow test_portfolio_all_regimes;
        QCheck_alcotest.to_alcotest prop_incremental_matches_touch_all;
        Alcotest.test_case "QUILT_SEQUENTIAL escape hatch" `Quick test_sequential_escape_hatch;
        Alcotest.test_case "portfolio arm failures surface" `Quick test_race_surfaces_arm_failure;
        Alcotest.test_case "portfolio wall-clock budget" `Quick test_portfolio_budget;
      ] );
  ]
