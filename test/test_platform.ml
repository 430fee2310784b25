(* Tests for quilt_platform + quilt_tracing + quilt_core: the simulator's
   latency anatomy, scaling, OOM and throttling behaviour, profiling, and
   the end-to-end optimizer. *)

module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Params = Quilt_platform.Params
module Calltree = Quilt_platform.Calltree
module Trace = Quilt_tracing.Trace
module Builder = Quilt_tracing.Builder
module Callgraph = Quilt_dag.Callgraph
module Workflow = Quilt_apps.Workflow
module Deathstar = Quilt_apps.Deathstar
module Special = Quilt_apps.Special
module Config = Quilt_core.Config
module Deploy = Quilt_core.Deploy
module Quilt = Quilt_core.Quilt
module Rng = Quilt_util.Rng

let cfg = Config.default

let noop_wf = Special.noop ()

let fresh ?(workflows = [ noop_wf ]) () = Quilt.fresh_platform ~workflows ()

(* --- Calltree --- *)

let test_calltree_structure () =
  let wfs = Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let reg = Workflow.registry wfs in
  let node = Calltree.build reg ~entry:"compose-post" ~req:"{\"data\":\"x\"}" in
  Alcotest.(check string) "root fn" "compose-post" node.Calltree.fn;
  Alcotest.(check int) "11 distinct functions" 11 (List.length (Calltree.functions node));
  Alcotest.(check bool) "has cpu" true (Calltree.total_cpu_us node > 0.0);
  ignore compose

let test_calltree_async_has_futures () =
  let wfs = Deathstar.social_network ~async:true () in
  let reg = Workflow.registry wfs in
  let node = Calltree.build reg ~entry:"compose-post" ~req:"{\"data\":\"x\"}" in
  let rec count_async n =
    List.fold_left
      (fun acc p ->
        match p with
        | Calltree.Call { kind = Quilt_tracing.Trace.Async; child; _ } -> acc + 1 + count_async child
        | Calltree.Call { child; _ } -> acc + count_async child
        | _ -> acc)
      0 n.Calltree.phases
  in
  Alcotest.(check bool) "async calls present" true (count_async node > 0)

(* --- Latency anatomy --- *)

let run_one engine ~entry ~req =
  let result = ref None in
  Engine.submit engine ~entry ~req ~on_done:(fun ~latency_us ~ok -> result := Some (latency_us, ok));
  Engine.drain engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "request never completed"

let test_single_request_latency_anatomy () =
  let engine = fresh () in
  let req = "{\"data\":\"n1\"}" in
  let lat, ok = run_one engine ~entry:"noop" ~req in
  Alcotest.(check bool) "success" true ok;
  (* Cold start dominates the first request. *)
  Alcotest.(check bool) "first request pays a cold start" true (lat > 100_000.0);
  (* A warm request is a few ms: two legs plus negligible work. *)
  let lat2, _ = run_one engine ~entry:"noop" ~req in
  Alcotest.(check bool) "warm request in the single-digit ms" true (lat2 > 1_000.0 && lat2 < 10_000.0);
  Alcotest.(check int) "one cold start" 1 (Engine.counters engine).Engine.cold_starts

let test_remote_overhead_scales_with_depth () =
  let wfs = Deathstar.social_network ~async:false () in
  let engine = Quilt.fresh_platform ~workflows:wfs () in
  let req = "{\"data\":\"p1\"}" in
  let _ = run_one engine ~entry:"read-home-timeline" ~req in
  let shallow, _ = run_one engine ~entry:"read-home-timeline" ~req in
  let _ = run_one engine ~entry:"compose-post" ~req in
  let deep, _ = run_one engine ~entry:"compose-post" ~req in
  Alcotest.(check bool) "more functions, more invocation overhead" true (deep > shallow)

(* --- Merged vs baseline --- *)

let graph_of wf =
  match Quilt.profile cfg ~workflows:[ wf ] wf with
  | Ok g -> g
  | Error e -> Alcotest.fail ("profiling failed: " ^ e)

let solution_for wf =
  match Quilt.optimize ~graph:(graph_of wf) cfg ~workflows:[ wf ] wf with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let test_profile_builds_expected_graph () =
  let wfs = Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let g = graph_of compose in
  Alcotest.(check int) "11 vertices" 11 (Callgraph.n_nodes g);
  Alcotest.(check string) "root" "compose-post" (Callgraph.node g g.Callgraph.root).Callgraph.name;
  (* Every code edge observed: the workflow is deterministic. *)
  Alcotest.(check int) "11 edges" (List.length compose.Workflow.code_edges) (List.length g.Callgraph.edges);
  (* Weights proportional to N. *)
  List.iter
    (fun (e : Callgraph.edge) -> Alcotest.(check int) "alpha 1 for single calls" 1 (Callgraph.alpha g e))
    g.Callgraph.edges;
  (* Resources were profiled. *)
  Array.iter
    (fun (n : Callgraph.node) ->
      Alcotest.(check bool) (n.Callgraph.name ^ " has cpu") true (n.Callgraph.cpu > 0.0);
      Alcotest.(check bool) (n.Callgraph.name ^ " has mem") true (n.Callgraph.mem_mb > 0.0))
    g.Callgraph.nodes

let test_optimize_merges_whole_workflow () =
  let wfs = Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let t = solution_for compose in
  (* §7.3.1: with 2 vCPU / 128 MB the decision merges the whole workflow. *)
  Alcotest.(check int) "single group" 1 (List.length t.Quilt.solution.Quilt_cluster.Types.subgraphs);
  Alcotest.(check int) "one merged deployment" 1 (List.length t.Quilt.deployments);
  Alcotest.(check int) "no cut edges" 0 t.Quilt.solution.Quilt_cluster.Types.cost

let test_merged_latency_beats_baseline () =
  let wfs = Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let t = solution_for compose in
  let run engine =
    let r =
      Loadgen.run_closed_loop engine ~entry:"compose-post" ~gen_req:compose.Workflow.gen_req
        ~connections:1 ~duration_us:20_000_000.0 ()
    in
    Loadgen.median_ms r
  in
  let baseline_engine = Quilt.fresh_platform ~workflows:wfs () in
  let baseline = run baseline_engine in
  let quilt_engine = Quilt.fresh_platform ~workflows:wfs () in
  Quilt.apply quilt_engine t;
  let merged = run quilt_engine in
  let improvement = (baseline -. merged) /. baseline in
  Alcotest.(check bool)
    (Printf.sprintf "merged improves median latency (baseline %.2fms, quilt %.2fms)" baseline merged)
    true
    (improvement > 0.30);
  (* All member-internal invocations became local. *)
  let c = Engine.counters quilt_engine in
  Alcotest.(check bool) "local invocations happened" true (c.Engine.local_invocations > 0)

let test_rollback_restores_baseline () =
  let wfs = Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let t = solution_for compose in
  let engine = Quilt.fresh_platform ~workflows:wfs () in
  Quilt.apply engine t;
  Quilt.rollback engine cfg t;
  let req = "{\"data\":\"p2\"}" in
  let _ = run_one engine ~entry:"compose-post" ~req in
  let c = Engine.counters engine in
  (* After rollback the workflow again fans out remotely. *)
  Alcotest.(check bool) "remote invocations resumed" true (c.Engine.remote_invocations >= 10)

(* --- Conditional overflow in the engine --- *)

let test_engine_guard_overflow () =
  let wf = Special.fan_out ~callee_mem_mb:10 () in
  let engine = Quilt.fresh_platform ~workflows:[ wf ] () in
  (* Merged deployment with alpha = 8 on the fan-out edge. *)
  Engine.deploy engine
    {
      Engine.service = "fan-out";
      vcpus = 2.0;
      mem_limit_mb = 128.0;
      base_mem_mb = 10.0;
      image_mb = 30.0;
      max_scale = 10;
      eager_http = false;
      mode =
        Engine.Merged
          { members = [ "fan-out"; "fan-out-worker" ]; guards = [ (("fan-out", "fan-out-worker"), 8) ] };
    };
  (* Warm the container first so latency comparisons exclude cold starts. *)
  let _ = run_one engine ~entry:"fan-out" ~req:"{\"num\":1}" in
  let lat_below, ok1 = run_one engine ~entry:"fan-out" ~req:"{\"num\":6}" in
  let c1 = Engine.counters engine in
  Alcotest.(check bool) "below alpha ok" true ok1;
  Alcotest.(check int) "below alpha: nothing remote" 0 c1.Engine.remote_invocations;
  let lat_above, ok2 = run_one engine ~entry:"fan-out" ~req:"{\"num\":12}" in
  let c2 = Engine.counters engine in
  Alcotest.(check bool) "above alpha ok" true ok2;
  Alcotest.(check int) "4 overflow invocations went remote" 4 c2.Engine.remote_invocations;
  Alcotest.(check bool) "overflow costs latency" true (lat_above > lat_below)

(* Two guarded edges of one merged deployment keep separate per-request
   budgets: a→b (α = 2) and b→c (α = 3).  [a] calls [b] four times in
   sequence and each [b] calls [c] three times.  The two local [b]s make
   six b→c calls in the request's task, of which three stay local; the two
   overflow [b]s run in their own deployment, where every call is remote.
   The later entries for a guarded pair and a non-member pair change
   nothing. *)
let test_guards_counted_per_pair () =
  let fn = Workflow.std_fn ~lang:"rust" ~profile:{ Workflow.compute_us = 100; db_us = 0; mem_mb = 1 } in
  let functions =
    [
      fn ~name:"a" ~children:[ "b" ] ~repeat:[ ("b", 3) ] ();
      fn ~name:"b" ~children:[ "c" ] ~repeat:[ ("c", 2) ] ();
      fn ~name:"c" ();
    ]
  in
  let wf =
    {
      Workflow.wf_name = "chain";
      entry = "a";
      functions;
      gen_req = (fun _ -> "{\"data\":\"x\"}");
      code_edges = Workflow.edges_of functions;
    }
  in
  let engine = Quilt.fresh_platform ~workflows:[ wf ] () in
  Engine.deploy engine
    {
      Engine.service = "a";
      vcpus = 2.0;
      mem_limit_mb = 128.0;
      base_mem_mb = 10.0;
      image_mb = 30.0;
      max_scale = 4;
      eager_http = false;
      mode =
        Engine.Merged
          {
            members = [ "a"; "b"; "c" ];
            guards =
              [
                (("a", "b"), 2);
                (("b", "c"), 3);
                (("a", "b"), 5);
                (("b", "c"), 1);
                (("a", "elsewhere"), 1);
              ];
          };
    };
  let calls = Hashtbl.create 8 in
  Engine.set_span_sink engine
    (Some
       {
         Engine.sk_sample = (fun _ -> true);
         sk_task =
           (fun ~rid:_ ~fn ~caller ~cid:_ ~node:_ ~t_send:_ ~t_enq:_ ~t_start:_ ~t_end:_ ~cpu_us:_
                ~mem_mb:_ ~async:_ ~local ~ok:_ ->
             match caller with
             | Some caller ->
                 let key = (caller, fn, local) in
                 Hashtbl.replace calls key (1 + Option.value ~default:0 (Hashtbl.find_opt calls key))
             | None -> ());
       });
  let count caller callee ~local =
    Option.value ~default:0 (Hashtbl.find_opt calls (caller, callee, local))
  in
  for request = 1 to 2 do
    Hashtbl.reset calls;
    let _, ok = run_one engine ~entry:"a" ~req:"{\"data\":\"x\"}" in
    let check what want got = Alcotest.(check int) (Printf.sprintf "request %d: %s" request what) want got in
    Alcotest.(check bool) "request ok" true ok;
    check "a->b local" 2 (count "a" "b" ~local:true);
    check "a->b remote" 2 (count "a" "b" ~local:false);
    check "b->c local" 3 (count "b" "c" ~local:true);
    check "b->c remote" 9 (count "b" "c" ~local:false)
  done

(* --- Memory: OOM and CM --- *)

let test_oom_kills_and_fails () =
  let wf = Special.fan_out ~callee_mem_mb:40 () in
  let engine = Quilt.fresh_platform ~workflows:[ wf ] () in
  (* Unguarded merge with a callee of 40 MB and a 128 MB limit: fan-out of
     12 needs 480 MB -> the container dies. *)
  Engine.deploy engine
    {
      Engine.service = "fan-out";
      vcpus = 4.0;
      mem_limit_mb = 128.0;
      base_mem_mb = 10.0;
      image_mb = 30.0;
      max_scale = 2;
      eager_http = false;
      mode =
        Engine.Merged { members = [ "fan-out"; "fan-out-worker" ]; guards = [] };
    };
  let _, ok = run_one engine ~entry:"fan-out" ~req:"{\"num\":12}" in
  let c = Engine.counters engine in
  Alcotest.(check bool) "request failed" false ok;
  Alcotest.(check bool) "container was killed" true (c.Engine.oom_kills >= 1);
  (* A small fan-out still works afterwards (fresh container). *)
  let _, ok2 = run_one engine ~entry:"fan-out" ~req:"{\"num\":2}" in
  Alcotest.(check bool) "recovered" true ok2

let test_guard_prevents_oom () =
  let wf = Special.fan_out ~callee_mem_mb:40 () in
  let engine = Quilt.fresh_platform ~workflows:[ wf ] () in
  Engine.deploy engine
    {
      Engine.service = "fan-out";
      vcpus = 4.0;
      mem_limit_mb = 128.0;
      base_mem_mb = 10.0;
      image_mb = 30.0;
      max_scale = 4;
      eager_http = false;
      mode =
        Engine.Merged
          { members = [ "fan-out"; "fan-out-worker" ]; guards = [ (("fan-out", "fan-out-worker"), 2) ] };
    };
  let _, ok = run_one engine ~entry:"fan-out" ~req:"{\"num\":12}" in
  let c = Engine.counters engine in
  Alcotest.(check bool) "request succeeded" true ok;
  Alcotest.(check int) "no OOM" 0 c.Engine.oom_kills

let test_cm_mode_runs () =
  let wfs = Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let engine = Quilt.fresh_platform ~workflows:wfs () in
  Deploy.deploy_cm engine cfg compose;
  let req = "{\"data\":\"c1\"}" in
  let _ = run_one engine ~entry:"compose-post" ~req in
  let warm, ok = run_one engine ~entry:"compose-post" ~req in
  Alcotest.(check bool) "cm ok" true ok;
  (* CM keeps everything in one container: no fn->fn remote invocations. *)
  let c = Engine.counters engine in
  Alcotest.(check int) "nothing remote" 0 c.Engine.remote_invocations;
  Alcotest.(check bool) "cm latency positive" true (warm > 0.0)

(* --- Scaling and load --- *)

let test_max_scale_respected () =
  let engine = fresh () in
  let r =
    Loadgen.run_open_loop engine ~entry:"noop" ~gen_req:noop_wf.Workflow.gen_req ~rate_rps:2000.0
      ~duration_us:3_000_000.0 ()
  in
  ignore r;
  Alcotest.(check bool) "pool bounded by max scale" true (Engine.peak_pool_size engine "noop" <= cfg.Config.max_scale)

let test_fission_latency_quirk () =
  (* Median latency at a very low rate exceeds the median at a moderate
     rate, because idle containers must re-specialize (§7.3.2/§7.5.1). *)
  let lat_at rate =
    let engine = fresh () in
    let r =
      Loadgen.run_open_loop engine ~entry:"noop" ~gen_req:noop_wf.Workflow.gen_req ~rate_rps:rate
        ~duration_us:20_000_000.0 ()
    in
    Loadgen.median_ms r
  in
  let low = lat_at 1.0 in
  let moderate = lat_at 200.0 in
  Alcotest.(check bool)
    (Printf.sprintf "median drops as load rises (%.2fms @1rps vs %.2fms @200rps)" low moderate)
    true (low > moderate)

let test_profiling_overhead_small () =
  let median ~profiled =
    let engine = fresh () in
    Engine.set_profiling engine profiled;
    let r =
      Loadgen.run_open_loop engine ~entry:"noop" ~gen_req:noop_wf.Workflow.gen_req ~rate_rps:300.0
        ~duration_us:10_000_000.0 ()
    in
    Loadgen.median_ms r
  in
  let off = median ~profiled:false in
  let on = median ~profiled:true in
  Alcotest.(check bool) "profiling costs something" true (on > off);
  Alcotest.(check bool) "but under 20%" true ((on -. off) /. off < 0.2)

let test_tracing_spans_recorded () =
  let wfs = Deathstar.social_network ~async:false () in
  let engine = Quilt.fresh_platform ~workflows:wfs () in
  Engine.set_profiling engine true;
  let _ = run_one engine ~entry:"compose-post" ~req:"{\"data\":\"t\"}" in
  let store = Engine.tracing engine in
  (* 1 client span + 10 internal edges (the 11-function workflow is a
     tree). *)
  Alcotest.(check int) "spans" (1 + List.length (List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs).Workflow.code_edges) (Trace.span_count store);
  let spans = Trace.spans store () in
  let client = List.filter (fun (s : Trace.span) -> s.Trace.caller = None) spans in
  Alcotest.(check int) "1 client span" 1 (List.length client)

let test_throughput_saturates () =
  let wfs = Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let tput rate =
    let engine = Quilt.fresh_platform ~workflows:wfs () in
    let r =
      Loadgen.run_open_loop engine ~entry:"compose-post" ~gen_req:compose.Workflow.gen_req
        ~rate_rps:rate ~duration_us:10_000_000.0 ()
    in
    r.Loadgen.throughput_rps
  in
  let t_low = tput 20.0 in
  let t_sat = tput 5000.0 in
  Alcotest.(check bool) "low load served fully" true (t_low > 15.0);
  Alcotest.(check bool) "saturation is finite" true (t_sat < 5000.0)

(* --- Opt-in bit end to end --- *)

let test_optimize_respects_pinned_function () =
  let wfs = Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  (* Mark text-service sensitive: the developer withdrew the opt-in. *)
  let functions =
    List.map
      (fun (f : Quilt_lang.Ast.fn) ->
        if f.Quilt_lang.Ast.fn_name = "text-service" then { f with Quilt_lang.Ast.mergeable = false }
        else f)
      compose.Workflow.functions
  in
  let compose = { compose with Workflow.functions } in
  let t = solution_for compose in
  (* text-service appears in no merged deployment. *)
  List.iter
    (fun (d : Deploy.merged_deployment) ->
      Alcotest.(check bool) "text-service not merged" false
        (List.mem "text-service" d.Deploy.members))
    t.Quilt.deployments;
  (* And the workflow still runs correctly after applying the plan. *)
  let engine = Quilt.fresh_platform ~workflows:[ compose ] () in
  Quilt.apply engine t;
  let _, ok = run_one engine ~entry:"compose-post" ~req:"{\"data\":\"pin\"}" in
  Alcotest.(check bool) "still works" true ok;
  let c = Engine.counters engine in
  Alcotest.(check bool) "text-service reached remotely" true (c.Engine.remote_invocations > 0)

(* --- Reconsideration (§1.1 monitoring) --- *)

let test_reconsider_keeps_stable_workload () =
  let wfs = Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let t = solution_for compose in
  match Quilt.reconsider cfg ~workflows:[ compose ] t with
  | Quilt.Keep report ->
      Alcotest.(check string) "empty drift report" "no drift" (Quilt_dag.Drift.describe report)
  | Quilt.Remerge _ -> Alcotest.fail "stable workload should not trigger a re-merge"
  | Quilt.Rollback_advised e -> Alcotest.fail ("unexpected rollback: " ^ e)

let test_reconsider_detects_update () =
  let wfs = Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let t = solution_for compose in
  (* The developer withdraws text-service's opt-in: reconsideration must
     produce a new plan that leaves it out. *)
  let functions =
    List.map
      (fun (f : Quilt_lang.Ast.fn) ->
        if f.Quilt_lang.Ast.fn_name = "text-service" then { f with Quilt_lang.Ast.mergeable = false }
        else f)
      compose.Workflow.functions
  in
  let updated = { compose with Workflow.functions } in
  match Quilt.reconsider cfg ~workflows:[ updated ] t with
  | Quilt.Remerge (t', report) ->
      List.iter
        (fun (d : Deploy.merged_deployment) ->
          Alcotest.(check bool) "new plan excludes text-service" false
            (List.mem "text-service" d.Deploy.members))
        t'.Quilt.deployments;
      (* The diagnostics name the withdrawn function, not just "drifted". *)
      Alcotest.(check bool) "opt-in flip attributed to text-service" true
        (List.mem "text-service" report.Quilt_dag.Drift.optin_flips)
  | Quilt.Keep _ -> Alcotest.fail "opt-in withdrawal must trigger re-merge"
  | Quilt.Rollback_advised e -> Alcotest.fail ("unexpected rollback: " ^ e)

let suite =
  [
    ( "platform.calltree",
      [
        Alcotest.test_case "structure" `Quick test_calltree_structure;
        Alcotest.test_case "async futures" `Quick test_calltree_async_has_futures;
      ] );
    ( "platform.engine",
      [
        Alcotest.test_case "latency anatomy" `Quick test_single_request_latency_anatomy;
        Alcotest.test_case "overhead scales with depth" `Quick test_remote_overhead_scales_with_depth;
        Alcotest.test_case "guard overflow" `Quick test_engine_guard_overflow;
        Alcotest.test_case "guards counted per pair" `Quick test_guards_counted_per_pair;
        Alcotest.test_case "oom kills and fails" `Quick test_oom_kills_and_fails;
        Alcotest.test_case "guard prevents oom" `Quick test_guard_prevents_oom;
        Alcotest.test_case "cm mode" `Quick test_cm_mode_runs;
        Alcotest.test_case "max scale" `Slow test_max_scale_respected;
        Alcotest.test_case "fission latency quirk" `Slow test_fission_latency_quirk;
        Alcotest.test_case "throughput saturates" `Slow test_throughput_saturates;
      ] );
    ( "platform.tracing",
      [
        Alcotest.test_case "profiling overhead small" `Slow test_profiling_overhead_small;
        Alcotest.test_case "spans recorded" `Quick test_tracing_spans_recorded;
        Alcotest.test_case "profile builds graph" `Slow test_profile_builds_expected_graph;
      ] );
    ( "core.quilt",
      [
        Alcotest.test_case "optimize merges workflow" `Slow test_optimize_merges_whole_workflow;
        Alcotest.test_case "merged beats baseline" `Slow test_merged_latency_beats_baseline;
        Alcotest.test_case "rollback" `Slow test_rollback_restores_baseline;
        Alcotest.test_case "pinned function stays separate" `Slow test_optimize_respects_pinned_function;
        Alcotest.test_case "reconsider keeps stable workload" `Slow test_reconsider_keeps_stable_workload;
        Alcotest.test_case "reconsider detects update" `Slow test_reconsider_detects_update;
      ] );
  ]
