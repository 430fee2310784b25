(* The benchmark's inputs: optimize-corpus's workflows, the configuration
   every workflow runs under, and sim-load's workflows and cases.

   optimize-corpus's bundled members (fixed across seeds):
   - the 9 DeathStarBench workflows, synchronous: the paper's own corpus;
   - the 3 Social Network workflows with asynchronous fan-outs, whose
     merges exercise async-edge memory accounting;
   - cross-language (five languages in one chain: the ABI shims);
   - fan-out (data-dependent fan-out, so §5.6 guards are emitted);
   - routed (two alternative chains under a tightened CPU budget);
   - nearby-cinema-mod (CPU-heavy clones: merging stops paying).

   Generated members (seeded): [Gen.random_rdag] topologies with
   [Workflow.std_fn] bodies, mixed languages, async edges and repeated calls
   (which become guarded edges).  Their sizes straddle the 12-vertex
   boundary where [Decision.auto] switches from the exact search to DIH, so
   both decision regimes are timed. *)

module Workflow = Quilt_apps.Workflow
module Callgraph = Quilt_dag.Callgraph
module Rng = Quilt_util.Rng

let bundled () =
  let rename suffix (wf : Workflow.t) = { wf with Workflow.wf_name = wf.Workflow.wf_name ^ suffix } in
  Quilt_apps.Deathstar.all ~async:false ()
  @ List.map (rename "-async") (Quilt_apps.Deathstar.social_network ~async:true ())
  @ [
      Quilt_apps.Special.cross_language ();
      Quilt_apps.Special.fan_out ~callee_mem_mb:16 ();
      Quilt_apps.Special.routed ();
      Quilt_apps.Special.modified_nearby_cinema ();
    ]

let langs = [ "c"; "cpp"; "rust"; "go"; "swift" ]

(* Invocations one request makes (the call-tree size); vertex ids are in
   topological order, so a reverse sweep sees every callee first. *)
let tree_size children =
  let n = Array.length children in
  let size = Array.make n 0 in
  for v = n - 1 downto 0 do
    size.(v) <- 1 + List.fold_left (fun acc (d, calls) -> acc + (calls * size.(d))) 0 children.(v)
  done;
  size.(0)

let generated_workflow rng ~index ~n =
  let g, _ = Quilt_dag.Gen.random_rdag rng ~n ~async_fraction:0.2 () in
  (* Shared callees run once per path that reaches them; keep the call tree
     within 1.5 n invocations so profiling stays cheap on every seed.  The
     first edge into each vertex is its spanning-tree edge and always stays,
     which keeps every vertex reachable. *)
  let limit = n + (n / 2) in
  let children = Array.make n [] in
  let has_parent = Array.make n false in
  let async = Array.make n false in
  List.iter
    (fun (e : Callgraph.edge) ->
      let src, dst = (e.Callgraph.src, e.Callgraph.dst) in
      let before = children.(src) in
      let spanning = not has_parent.(dst) in
      let fits calls =
        children.(src) <- before @ [ (dst, calls) ];
        tree_size children <= limit
      in
      if (e.Callgraph.weight >= 2 && fits 2) || fits 1 || spanning then begin
        has_parent.(dst) <- true;
        if e.Callgraph.kind = Callgraph.Async then async.(src) <- true
      end
      else children.(src) <- before)
    g.Callgraph.edges;
  let name i = Printf.sprintf "g%d-f%d" index i in
  (* Vertices with several callees invoke them asynchronously, so a
     request's first pass through cold containers costs depth, not size,
     times a cold start; a sequential 60-function tree would not finish one
     request within a profiling window. *)
  let functions =
    List.init n (fun i ->
        let nd = Callgraph.node g i in
        let profile =
          {
            Workflow.compute_us = int_of_float nd.Callgraph.cpu * 150;
            db_us = Rng.int_in rng 0 1500;
            mem_mb = int_of_float nd.Callgraph.mem_mb / 4;
          }
        in
        Workflow.std_fn ~name:(name i) ~lang:(Rng.pick rng langs) ~profile
          ~children:(List.map (fun (d, _) -> name d) children.(i))
          ~repeat:(List.filter_map (fun (d, c) -> if c > 1 then Some (name d, c - 1) else None) children.(i))
          ~parallel:(async.(i) || List.length children.(i) >= 2) ())
  in
  {
    Workflow.wf_name = Printf.sprintf "gen-%02d-n%d" index n;
    entry = name 0;
    functions;
    gen_req = (fun r -> Printf.sprintf "{\"data\":\"g%d-%d\"}" index (Rng.int r 40));
    code_edges = Workflow.edges_of functions;
  }

(* 48 members, each size twice: sixteen in the exact regime (8–12
   functions), thirty-two spread over 13–60 (DIH).  Percentiles over this
   many workflows move little from one seed to the next.  The exact
   search's cost varies most from one topology to the next: with thirty-two
   exact-regime members, the 90th percentile fell inside that regime and
   its quartile spread across five seeds was 0.31; with sixteen it is
   0.07–0.09 across ten. *)
let sizes =
  let once = List.init 8 (fun i -> 8 + (i mod 5)) @ List.init 16 (fun k -> 13 + (k * 47 / 15)) in
  once @ once

let generated ~seed =
  let rng = Rng.create (1_000_003 * (seed + 1)) in
  List.mapi (fun index n -> generated_workflow (Rng.split rng) ~index ~n) sizes

(* The configuration every workflow is profiled, optimized and simulated
   under.  Profiling runs one connection for a third of the default window,
   so that set-up can be repeated within one run; its latencies are then
   Figure 6's single-connection latency runs.  [domains] is always given
   explicitly. *)
let config ~seed ~domains =
  {
    Quilt_core.Config.default with
    Quilt_core.Config.seed;
    domains;
    profile_duration_us = 10_000_000.0;
    profile_connections = 1;
  }

(* One sim-load case: a fresh platform, deployed by [deploy], warmed by a
   closed loop of 32 connections for 6 virtual seconds as Figure 7 warms
   it, then open-loop Poisson load at [rate]: [warmup_s] virtual seconds
   for the containers to scale out, then [measure_s] measured ones. *)
let sim_case (cfg : Quilt_core.Config.t) (wf : Workflow.t) ~rate ~warmup_s ~measure_s ~seed deploy =
  let module Loadgen = Quilt_platform.Loadgen in
  let engine =
    Quilt_core.Quilt.fresh_platform ~seed:cfg.Quilt_core.Config.seed ~config:cfg ~workflows:[ wf ] ()
  in
  deploy engine;
  let entry = wf.Workflow.entry and gen_req = wf.Workflow.gen_req in
  ignore (Loadgen.run_closed_loop engine ~entry ~gen_req ~connections:32 ~duration_us:6e6 ~warmup_us:0.0 ());
  ( engine,
    Loadgen.run_open_loop engine ~entry ~gen_req ~rate_rps:rate ~duration_us:(measure_s *. 1e6)
      ~warmup_us:(warmup_s *. 1e6) ~seed () )

(* sim-load's workflows, each with a light rate and a heavy rate (requests
   per virtual second), and its open-loop warm-up and measured window
   (virtual seconds).  The heavy rate is three quarters of the unmerged
   baseline's capacity, as perfbench/knee.ml measures it. *)
let sim_load () =
  let wfs = Quilt_apps.Deathstar.all ~async:false () @ [ Quilt_apps.Special.fan_out ~callee_mem_mb:24 () ] in
  List.map
    (fun (name, light, heavy, warmup_s, measure_s) ->
      (List.find (fun (w : Workflow.t) -> w.Workflow.wf_name = name) wfs, light, heavy, warmup_s, measure_s))
    [
      ("compose-post", 200.0, 1700.0, 4.0, 4.0);
      ("compose-review", 150.0, 600.0, 4.0, 4.0);
      ("search-handler", 4.0, 23.0, 8.0, 64.0);
      ("fan-out", 20.0, 1900.0, 4.0, 4.0);
    ]
