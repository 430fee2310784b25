(* Focused unit tests for the simulator's mechanics: processor-sharing CPU,
   CFS throttling of long bursts, cold-start composition, container reuse
   and specialization, routing, the load generators' accounting, and the
   cluster node model (topology, reservations, hop classes, image cache,
   node kills).  Also covers the tracing builder's aggregation details. *)

module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Params = Quilt_platform.Params
module Trace = Quilt_tracing.Trace
module Builder = Quilt_tracing.Builder
module Callgraph = Quilt_dag.Callgraph
module Workflow = Quilt_apps.Workflow
module Special = Quilt_apps.Special
module Quilt = Quilt_core.Quilt
module Config = Quilt_core.Config
module Deploy = Quilt_core.Deploy
module Ast = Quilt_lang.Ast
module Topology = Quilt_place.Topology
module Rng = Quilt_util.Rng

(* A configurable single function: the request selects the work. *)
let dial_fn =
  {
    Ast.fn_name = "dial";
    fn_lang = "rust";
    mergeable = true;
    body =
      Ast.Seq
        ( Ast.Burn (Ast.Json_get_int (Ast.Var "req", "cpu")),
          Ast.Seq
            ( Ast.Sleep_io (Ast.Json_get_int (Ast.Var "req", "io")),
              Ast.Seq
                (Ast.Use_mem (Ast.Json_get_int (Ast.Var "req", "mem")), Ast.Json_empty) ) );
  }

let dial_wf =
  {
    Workflow.wf_name = "dial";
    entry = "dial";
    functions = [ dial_fn ];
    gen_req = (fun _ -> "{\"cpu\":1000,\"io\":0,\"mem\":0}");
    code_edges = [];
  }

let deploy_dial ?(vcpus = 2.0) ?(mem_limit = 128.0) ?(max_scale = 10) engine =
  Engine.deploy engine
    {
      Engine.service = "dial";
      vcpus;
      mem_limit_mb = mem_limit;
      base_mem_mb = 8.0;
      image_mb = 30.0;
      max_scale;
      eager_http = false;
      mode = Engine.Plain;
    }

let fresh_dial ?vcpus ?mem_limit ?max_scale () =
  let engine = Engine.create ~registry:(Workflow.registry [ dial_wf ]) () in
  deploy_dial ?vcpus ?mem_limit ?max_scale engine;
  engine

let req ~cpu ~io ~mem = Printf.sprintf "{\"cpu\":%d,\"io\":%d,\"mem\":%d}" cpu io mem

let run_n engine reqs =
  (* Submits all requests at t=now, returns latencies in submission order. *)
  let results = Array.make (List.length reqs) (0.0, false) in
  List.iteri
    (fun i r ->
      Engine.submit engine ~entry:"dial" ~req:r ~on_done:(fun ~latency_us ~ok ->
          results.(i) <- (latency_us, ok)))
    reqs;
  Engine.drain engine;
  Array.to_list results

let warm engine = ignore (run_n engine [ req ~cpu:1 ~io:0 ~mem:0 ])

(* --- CPU model --- *)

let test_ps_sharing_two_tasks_one_core () =
  let engine = fresh_dial ~vcpus:1.0 () in
  warm engine;
  (* One 10ms task alone takes ~10ms + overheads... *)
  let solo =
    match run_n engine [ req ~cpu:10_000 ~io:0 ~mem:0 ] with
    | [ (l, true) ] -> l
    | _ -> Alcotest.fail "solo failed"
  in
  (* ...two submitted together on a 1-vCPU container share it.  The second
     request lands on a second container only if the first rejects — with
     cpu-based acceptance at threshold 0.8 and 1 vCPU, slots = 1, so the
     second waits or cold starts.  Use a 2-vCPU container to host both. *)
  let engine2 = fresh_dial ~vcpus:2.0 () in
  warm engine2;
  let both = run_n engine2 [ req ~cpu:10_000 ~io:0 ~mem:0; req ~cpu:10_000 ~io:0 ~mem:0 ] in
  List.iter
    (fun (l, ok) ->
      Alcotest.(check bool) "ok" true ok;
      (* Two tasks, two vCPUs: no slowdown; latency close to solo. *)
      Alcotest.(check bool) "parallel on 2 vCPUs" true (Float.abs (l -. solo) < 2_000.0))
    both

(* io-first then a long burst: concurrent requests are admitted while
   sleeping (zero CPU), then burst together — the over-subscription that
   triggers CFS throttling. *)
let burst_fn =
  {
    Ast.fn_name = "burst";
    fn_lang = "rust";
    mergeable = true;
    body =
      Ast.Seq
        ( Ast.Sleep_io (Ast.Json_get_int (Ast.Var "req", "io")),
          Ast.Seq (Ast.Burn (Ast.Json_get_int (Ast.Var "req", "cpu")), Ast.Json_empty) );
  }

let burst_wf =
  {
    Workflow.wf_name = "burst";
    entry = "burst";
    functions = [ burst_fn ];
    gen_req = (fun _ -> "{\"io\":0,\"cpu\":1000}");
    code_edges = [];
  }

let test_cfs_throttle_applies_to_long_bursts () =
  let fresh_burst ~vcpus ~max_scale =
    let engine = Engine.create ~registry:(Workflow.registry [ burst_wf ]) () in
    Engine.deploy engine
      {
        Engine.service = "burst";
        vcpus;
        mem_limit_mb = 128.0;
        base_mem_mb = 8.0;
        image_mb = 30.0;
        max_scale;
        eager_http = false;
        mode = Engine.Plain;
      };
    engine
  in
  let run_burst engine reqs =
    let results = Array.make (List.length reqs) (0.0, false) in
    List.iteri
      (fun i r ->
        Engine.submit engine ~entry:"burst" ~req:r ~on_done:(fun ~latency_us ~ok ->
            results.(i) <- (latency_us, ok)))
      reqs;
    Engine.drain engine;
    Array.to_list results
  in
  let breq ~io ~cpu = Printf.sprintf "{\"io\":%d,\"cpu\":%d}" io cpu in
  let engine = fresh_burst ~vcpus:2.0 ~max_scale:1 in
  ignore (run_burst engine [ breq ~io:0 ~cpu:1 ]);
  let solo =
    match run_burst engine [ breq ~io:0 ~cpu:40_000 ] with
    | [ (l, true) ] -> l
    | _ -> Alcotest.fail "solo failed"
  in
  (* Six requests admitted during their 30ms sleeps, bursting together:
     6 > 2 + 0.9, so each long seg runs below its fair share. *)
  let six = run_burst engine (List.init 6 (fun _ -> breq ~io:30_000 ~cpu:40_000)) in
  let max_lat = List.fold_left (fun acc (l, _) -> Float.max acc l) 0.0 six in
  let fair_share = (6.0 *. 40_000.0 /. 2.0) +. 30_000.0 +. 5_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "throttled beyond fair share (solo %.1fms, loaded %.1fms)" (solo /. 1000.0)
       (max_lat /. 1000.0))
    true
    (max_lat > fair_share)

let test_io_does_not_consume_cpu () =
  let engine = fresh_dial ~vcpus:1.0 ~max_scale:1 () in
  warm engine;
  (* Many concurrent sleepers on one 1-vCPU container: latency stays ~io. *)
  let rs = run_n engine (List.init 8 (fun _ -> req ~cpu:100 ~io:20_000 ~mem:0)) in
  List.iter
    (fun (l, ok) ->
      Alcotest.(check bool) "ok" true ok;
      Alcotest.(check bool) "sleepers overlap" true (l < 40_000.0))
    rs

(* --- Cold start composition --- *)

let test_cold_start_scales_with_image () =
  let latency_for image_mb eager =
    let engine = Engine.create ~registry:(Workflow.registry [ dial_wf ]) () in
    Engine.deploy engine
      {
        Engine.service = "dial";
        vcpus = 2.0;
        mem_limit_mb = 128.0;
        base_mem_mb = 8.0;
        image_mb;
        max_scale = 10;
        eager_http = eager;
        mode = Engine.Plain;
      };
    match run_n engine [ req ~cpu:0 ~io:0 ~mem:0 ] with
    | [ (l, true) ] -> l
    | _ -> Alcotest.fail "request failed"
  in
  let small = latency_for 10.0 false in
  let big = latency_for 60.0 false in
  let prm = Params.default in
  Alcotest.(check bool) "bigger image, slower cold start" true (big > small);
  Alcotest.(check (float 1.0)) "pull-time difference" (50.0 *. prm.Params.cold_start_pull_us_per_mb)
    (big -. small);
  (* Eager HTTP loading adds the shared-library time. *)
  let eager = latency_for 10.0 true in
  Alcotest.(check (float 1.0)) "http stack load" prm.Params.http_stack_load_us (eager -. small)

let test_rolling_update_is_seamless () =
  let engine = fresh_dial () in
  warm engine;
  (* A plain re-deploy forces the next request through a cold start... *)
  let cold_engine = fresh_dial () in
  warm cold_engine;
  deploy_dial cold_engine;
  let lat_cold, _ = (match run_n cold_engine [ req ~cpu:0 ~io:0 ~mem:0 ] with [ r ] -> r | _ -> assert false) in
  Alcotest.(check bool) "plain replace cold starts" true (lat_cold > 100_000.0);
  (* ...while a rolling update keeps serving warm from the old version. *)
  Engine.deploy_rolling engine
    {
      Engine.service = "dial";
      vcpus = 2.0;
      mem_limit_mb = 128.0;
      base_mem_mb = 9.0;
      image_mb = 40.0;
      max_scale = 10;
      eager_http = false;
      mode = Engine.Plain;
    };
  let lat_during, ok = (match run_n engine [ req ~cpu:0 ~io:0 ~mem:0 ] with [ r ] -> r | _ -> assert false) in
  Alcotest.(check bool) "served during the update" true ok;
  Alcotest.(check bool) "no cold start visible to clients" true (lat_during < 10_000.0);
  (* After the new container is up the route has flipped; requests still
     work and the background start was the only extra cold start. *)
  Engine.run_until engine (Engine.now engine +. 2_000_000.0);
  let lat_after, ok2 = (match run_n engine [ req ~cpu:0 ~io:0 ~mem:0 ] with [ r ] -> r | _ -> assert false) in
  Alcotest.(check bool) "served after the flip" true ok2;
  Alcotest.(check bool) "warm after the flip" true (lat_after < 10_000.0)

let test_replacing_deployment_resets_pool () =
  let engine = fresh_dial () in
  warm engine;
  Alcotest.(check int) "one container" 1 (Engine.pool_size engine "dial");
  (* A function update (§5.5) replaces the deployment; the pool restarts. *)
  deploy_dial engine;
  Alcotest.(check int) "fresh pool" 0 (Engine.pool_size engine "dial");
  let ok = match run_n engine [ req ~cpu:0 ~io:0 ~mem:0 ] with [ (_, ok) ] -> ok | _ -> false in
  Alcotest.(check bool) "works after update" true ok;
  Alcotest.(check bool) "cold started again" true ((Engine.counters engine).Engine.cold_starts >= 2)

(* --- Memory accounting --- *)

let test_total_base_mem_tracks_pools () =
  let engine = fresh_dial () in
  Alcotest.(check (float 0.01)) "empty" 0.0 (Engine.total_base_mem_mb engine);
  warm engine;
  Alcotest.(check bool) "one container resident" true (Engine.total_base_mem_mb engine >= 8.0)

let test_workspace_released_after_request () =
  let engine = fresh_dial () in
  warm engine;
  ignore (run_n engine [ req ~cpu:0 ~io:0 ~mem:50 ]);
  (* After completion the 50 MB workspace is gone: only base remains. *)
  Alcotest.(check bool) "workspace released" true (Engine.total_base_mem_mb engine < 10.0)

(* --- Load generators --- *)

let test_closed_loop_counts () =
  let engine = fresh_dial () in
  let r =
    Loadgen.run_closed_loop engine ~entry:"dial"
      ~gen_req:(fun _ -> req ~cpu:1_000 ~io:0 ~mem:0)
      ~connections:2 ~duration_us:2_000_000.0 ~warmup_us:500_000.0 ()
  in
  Alcotest.(check int) "no failures" 0 r.Loadgen.failures;
  Alcotest.(check bool) "kept both connections busy" true (r.Loadgen.successes > 100);
  Alcotest.(check int) "offered = completed for closed loop" r.Loadgen.offered r.Loadgen.successes

let test_closed_loop_think_time () =
  let engine = fresh_dial () in
  let r =
    Loadgen.run_closed_loop engine ~entry:"dial"
      ~gen_req:(fun _ -> req ~cpu:0 ~io:0 ~mem:0)
      ~connections:1 ~duration_us:2_000_000.0 ~warmup_us:0.0 ~think_us:100_000.0 ()
  in
  (* ~1 request per 100ms+latency. *)
  Alcotest.(check bool) "think time paces the connection" true (r.Loadgen.successes <= 22)

let test_open_loop_rate_respected () =
  let engine = fresh_dial () in
  let r =
    Loadgen.run_open_loop engine ~entry:"dial"
      ~gen_req:(fun _ -> req ~cpu:100 ~io:0 ~mem:0)
      ~rate_rps:100.0 ~duration_us:5_000_000.0 ~warmup_us:1_000_000.0 ()
  in
  Alcotest.(check bool) "offered close to rate x duration" true
    (abs (r.Loadgen.offered - 500) < 90);
  Alcotest.(check bool) "all served at low load" true
    (float_of_int r.Loadgen.successes > 0.95 *. float_of_int r.Loadgen.offered)

let test_simulation_is_deterministic () =
  let run () =
    let wfs = Quilt_apps.Deathstar.social_network ~async:false () in
    let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
    let engine = Quilt.fresh_platform ~seed:11 ~workflows:[ compose ] () in
    let r =
      Loadgen.run_open_loop engine ~entry:"compose-post" ~gen_req:compose.Workflow.gen_req
        ~rate_rps:120.0 ~duration_us:3_000_000.0 ~warmup_us:1_000_000.0 ()
    in
    (r.Loadgen.successes, r.Loadgen.offered, Loadgen.median_ms r, (Engine.counters engine).Engine.cold_starts)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

(* Golden fingerprints: everything a load generator and the engine observe
   of one whole simulation — outcomes, the exact latency distribution
   (float equality), counters, event count, queue depth and the final
   virtual clock.  The values were recorded when the engine could still
   run the seed's binary-heap scheduler beside the timer wheel and both
   produced them bit for bit, so they pin the wheel to the seed's event
   order. *)
type golden = {
  g_successes : int;
  g_failures : int;
  g_offered : int;
  g_median_ms : float;
  g_p99_ms : float;
  g_mean_ms : float;
  g_counters : Engine.counters;
  g_events : int;
  g_peak_depth : int;
  g_clock_us : float;
}

let fingerprint engine (r : Loadgen.result) =
  {
    g_successes = r.Loadgen.successes;
    g_failures = r.Loadgen.failures;
    g_offered = r.Loadgen.offered;
    g_median_ms = Loadgen.median_ms r;
    g_p99_ms = Loadgen.p99_ms r;
    g_mean_ms = Loadgen.mean_ms r;
    g_counters = Engine.counters engine;
    g_events = Engine.events_processed engine;
    g_peak_depth = Engine.peak_queue_depth engine;
    g_clock_us = Engine.now engine;
  }

let check_golden ~expected got =
  let i name f = Alcotest.(check int) name (f expected) (f got) in
  let x name f = Alcotest.(check (float 0.0)) name (f expected) (f got) in
  i "successes" (fun g -> g.g_successes);
  i "failures" (fun g -> g.g_failures);
  i "offered" (fun g -> g.g_offered);
  x "median ms" (fun g -> g.g_median_ms);
  x "p99 ms" (fun g -> g.g_p99_ms);
  x "mean ms" (fun g -> g.g_mean_ms);
  Alcotest.(check bool) "counters" true (expected.g_counters = got.g_counters);
  i "events" (fun g -> g.g_events);
  i "peak queue depth" (fun g -> g.g_peak_depth);
  x "final clock" (fun g -> g.g_clock_us)

let no_faults =
  {
    Engine.cold_starts = 0;
    oom_kills = 0;
    completed = 0;
    failed = 0;
    remote_invocations = 0;
    local_invocations = 0;
    crash_kills = 0;
    net_drops = 0;
    hop_timeouts = 0;
  }

(* A saturated single-vCPU pool with mixed CPU, I/O and memory phases. *)
let test_dial_golden_fingerprint () =
  let module Rng = Quilt_util.Rng in
  let engine = Engine.create ~registry:(Workflow.registry [ dial_wf ]) () in
  deploy_dial ~vcpus:1.0 ~max_scale:4 engine;
  let r =
    Loadgen.run_open_loop engine ~entry:"dial"
      ~gen_req:(fun rng ->
        req ~cpu:(200 + Rng.int rng 3000) ~io:(Rng.int rng 5000) ~mem:(Rng.int rng 8))
      ~rate_rps:400.0 ~duration_us:4_000_000.0 ()
  in
  Alcotest.(check (float 0.0)) "throughput rps" 397.0 r.Loadgen.throughput_rps;
  check_golden (fingerprint engine r)
    ~expected:
      {
        g_successes = 1590;
        g_failures = 0;
        g_offered = 1590;
        g_median_ms = 6.4960000000000004;
        g_p99_ms = 39.68;
        g_mean_ms = 6.9667529746973171;
        g_counters = { no_faults with cold_starts = 4; completed = 1749 };
        g_events = 10498;
        g_peak_depth = 18;
        g_clock_us = 34_400_000.0;
      }

(* The DeathStarBench compose-post workflow on baseline deployments, where
   every call between its services is a remote hop. *)
let test_compose_post_golden_fingerprint () =
  let wfs = Quilt_apps.Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let engine = Quilt.fresh_platform ~seed:23 ~workflows:[ compose ] () in
  let r =
    Loadgen.run_open_loop engine ~entry:"compose-post" ~gen_req:compose.Workflow.gen_req
      ~rate_rps:150.0 ~duration_us:3_000_000.0 ~warmup_us:500_000.0 ()
  in
  check_golden (fingerprint engine r)
    ~expected:
      {
        g_successes = 420;
        g_failures = 0;
        g_offered = 420;
        g_median_ms = 1859.5840000000001;
        g_p99_ms = 3293.1840000000002;
        g_mean_ms = 1907.4464131688619;
        g_counters =
          { no_faults with cold_starts = 110; completed = 506; remote_invocations = 5060 };
        g_events = 38167;
        g_peak_depth = 130;
        g_clock_us = 33_500_000.0;
      }

(* The fan-out workflow under its Quilt plan: one Merged deployment whose
   member edge carries a §5.6 guard (alpha = 8), so in-process async
   futures, overflow to remote and OOM kills all run in one simulation. *)
let test_fan_out_quilt_golden_fingerprint () =
  let wf = Special.fan_out ~callee_mem_mb:10 () in
  let plan =
    match Quilt.optimize Config.default ~workflows:[ wf ] wf with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "one merged deployment" 1 (List.length plan.Quilt.deployments);
  let engine = Quilt.fresh_platform ~seed:5 ~workflows:[ wf ] () in
  Quilt.apply engine plan;
  let r =
    Loadgen.run_open_loop engine ~entry:"fan-out" ~gen_req:wf.Workflow.gen_req ~rate_rps:100.0
      ~duration_us:3_000_000.0 ~warmup_us:500_000.0 ()
  in
  check_golden (fingerprint engine r)
    ~expected:
      {
        g_successes = 265;
        g_failures = 20;
        g_offered = 285;
        g_median_ms = 6.4320000000000004;
        g_p99_ms = 325.63200000000001;
        g_mean_ms = 24.150059934562428;
        g_counters =
          {
            no_faults with
            cold_starts = 47;
            oom_kills = 16;
            completed = 309;
            failed = 34;
            remote_invocations = 768;
            local_invocations = 1838;
          };
        g_events = 10504;
        g_peak_depth = 83;
        g_clock_us = 33_500_000.0;
      }

(* compose-post under the container-merge baseline at a rate that
   OOM-kills: every member behind the in-container gateway hop, and the
   kill path failing in-flight requests. *)
let test_compose_post_cm_golden_fingerprint () =
  let wfs = Quilt_apps.Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let engine = Quilt.fresh_platform ~seed:17 ~workflows:[ compose ] () in
  Deploy.deploy_cm engine Config.default compose;
  let r =
    Loadgen.run_open_loop engine ~entry:"compose-post" ~gen_req:compose.Workflow.gen_req
      ~rate_rps:100.0 ~duration_us:3_000_000.0 ~warmup_us:500_000.0 ()
  in
  check_golden (fingerprint engine r)
    ~expected:
      {
        g_successes = 273;
        g_failures = 12;
        g_offered = 285;
        g_median_ms = 30.61338671875;
        g_p99_ms = 31.103999999999999;
        g_mean_ms = 30.619522093257807;
        g_counters =
          { no_faults with cold_starts = 35; oom_kills = 9; completed = 273; failed = 70 };
        g_events = 12645;
        g_peak_depth = 52;
        g_clock_us = 33_500_000.0;
      }

(* The asynchronous compose-post on baseline deployments: remote futures
   resolved by hops and joined by their caller. *)
let test_async_compose_post_golden_fingerprint () =
  let wfs = Quilt_apps.Deathstar.social_network ~async:true () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let engine = Quilt.fresh_platform ~seed:29 ~workflows:[ compose ] () in
  let r =
    Loadgen.run_open_loop engine ~entry:"compose-post" ~gen_req:compose.Workflow.gen_req
      ~rate_rps:100.0 ~duration_us:3_000_000.0 ~warmup_us:500_000.0 ()
  in
  check_golden (fingerprint engine r)
    ~expected:
      {
        g_successes = 285;
        g_failures = 0;
        g_offered = 285;
        g_median_ms = 12.265296875000001;
        g_p99_ms = 522.24000000000001;
        g_mean_ms = 68.584978675760823;
        g_counters =
          { no_faults with cold_starts = 110; completed = 343; remote_invocations = 3430 };
        g_events = 21901;
        g_peak_depth = 269;
        g_clock_us = 33_500_000.0;
      }

(* The process-wide scheduler stats are atomics because bench fan-outs
   drive engines from a Domain pool.  Whatever the interleaving of the
   per-engine syncs, the global totals must come out exactly additive
   (events) and max-combining (peak depth) — a lost update would show up
   as a shortfall against the per-engine counters. *)
let test_global_stats_race_free_under_domains () =
  let module Pool = Quilt_util.Pool in
  let module Rng = Quilt_util.Rng in
  Engine.reset_global_stats ();
  Alcotest.(check (pair int int)) "reset zeroes both" (0, 0) (Engine.global_stats ());
  let run seed =
    let engine = Engine.create ~seed ~registry:(Workflow.registry [ dial_wf ]) () in
    deploy_dial engine;
    let _ =
      Loadgen.run_open_loop engine ~entry:"dial"
        ~gen_req:(fun rng ->
          req ~cpu:(100 + Rng.int rng 400) ~io:(Rng.int rng 3000) ~mem:0)
        ~rate_rps:300.0 ~duration_us:1_500_000.0 ~warmup_us:0.0 ()
    in
    (Engine.events_processed engine, Engine.peak_queue_depth engine)
  in
  let per = Pool.map ~domains:4 run [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let events, peak = Engine.global_stats () in
  let sum_events = List.fold_left (fun a (e, _) -> a + e) 0 per in
  let max_peak = List.fold_left (fun a (_, p) -> max a p) 0 per in
  Alcotest.(check bool) "engines did real work" true (sum_events > 0);
  Alcotest.(check int) "no update lost across domains: events add up" sum_events events;
  Alcotest.(check int) "peak depth is the max across engines" max_peak peak;
  (* Monotone under further work: one more engine adds exactly its own. *)
  let extra, _ = run 99 in
  let events', peak' = Engine.global_stats () in
  Alcotest.(check int) "strictly monotone" (events + extra) events';
  Alcotest.(check bool) "peak never decreases" true (peak' >= peak)

(* The cluster topology subsystem must be invisible until asked for: a
   [Topology.Flat] install — and even a degenerate one-node cluster tuned
   to the seed's constants — leaves a full simulation bit-identical to the
   untouched engine: the cluster model's flat-parity claim, beside the
   scheduler golden fingerprints above. *)
let compose_fingerprint prepare =
  let wfs = Quilt_apps.Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let engine = Quilt.fresh_platform ~seed:11 ~workflows:[ compose ] () in
  prepare engine;
  let r =
    Loadgen.run_open_loop engine ~entry:"compose-post" ~gen_req:compose.Workflow.gen_req
      ~rate_rps:120.0 ~duration_us:3_000_000.0 ~warmup_us:1_000_000.0 ()
  in
  ( (r.Loadgen.successes, r.Loadgen.failures, r.Loadgen.offered),
    (Loadgen.median_ms r, Loadgen.p99_ms r, Loadgen.mean_ms r),
    Engine.counters engine,
    Engine.now engine )

let test_flat_topology_bit_identical () =
  let seed = compose_fingerprint (fun _ -> ()) in
  let flat =
    compose_fingerprint (fun e -> Engine.set_topology e Quilt_place.Topology.flat)
  in
  Alcotest.(check bool) "Topology.flat = untouched engine, bit-identical" true (seed = flat)

let test_degenerate_cluster_matches_seed () =
  (* One effectively-unbounded node, image cache off, same-node RTT pinned
     to the seed's flat 200 µs: the cluster code paths all run (hops are
     classified, capacity is reserved) yet every latency and counter must
     equal the seed's — the node model prices, it never distorts. *)
  let seed = compose_fingerprint (fun _ -> ()) in
  let one_node =
    Quilt_place.Topology.make ~rtt_same_node_us:Params.default.Params.rtt_us
      ~image_cache:false
      [ Quilt_place.Topology.node ~rack:0 ~vcpus:1e9 ~mem_mb:1e12 () ]
  in
  let degenerate = compose_fingerprint (fun e -> Engine.set_topology e one_node) in
  Alcotest.(check bool) "one fat node at 200us = seed engine, bit-identical" true
    (seed = degenerate)

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

(* --- Tracing builder details --- *)

let test_builder_async_edge_kind () =
  let store = Trace.create () in
  Trace.record_span store { Trace.ts = 0.0; caller = None; callee = "root"; kind = Trace.Sync };
  Trace.record_span store { Trace.ts = 1.0; caller = Some "root"; callee = "w"; kind = Trace.Async };
  Trace.record_span store { Trace.ts = 2.0; caller = Some "root"; callee = "w"; kind = Trace.Async };
  match Builder.build store ~entry:"root" () with
  | Error e -> Alcotest.fail e
  | Ok g ->
      Alcotest.(check int) "two vertices" 2 (Callgraph.n_nodes g);
      (match g.Callgraph.edges with
      | [ e ] ->
          Alcotest.(check int) "weight 2" 2 e.Callgraph.weight;
          Alcotest.(check bool) "async kind" true (e.Callgraph.kind = Callgraph.Async);
          Alcotest.(check int) "alpha = ceil(2/1)" 2 (Callgraph.alpha g e)
      | _ -> Alcotest.fail "expected one edge")

let test_builder_window_filter () =
  let store = Trace.create () in
  Trace.record_span store { Trace.ts = 0.0; caller = None; callee = "root"; kind = Trace.Sync };
  Trace.record_span store { Trace.ts = 5.0; caller = Some "root"; callee = "old"; kind = Trace.Sync };
  Trace.record_span store { Trace.ts = 100.0; caller = None; callee = "root"; kind = Trace.Sync };
  Trace.record_span store { Trace.ts = 105.0; caller = Some "root"; callee = "new"; kind = Trace.Sync };
  match Builder.build store ~entry:"root" ~window_start:50.0 () with
  | Error e -> Alcotest.fail e
  | Ok g ->
      Alcotest.(check bool) "old edge excluded" true (Callgraph.find_node g "old" = None);
      Alcotest.(check bool) "new edge included" true (Callgraph.find_node g "new" <> None);
      Alcotest.(check int) "N counts only windowed invocations" 1 g.Callgraph.invocations

let test_builder_aggregates_containers () =
  let store = Trace.create () in
  Trace.record_span store { Trace.ts = 0.0; caller = None; callee = "root"; kind = Trace.Sync };
  (* Two containers of the same function: cumulative CPU sums; memory takes
     the peak. *)
  Trace.record_resource store
    { Trace.rs_ts = 1.0; container = 1; fn = "root"; cpu_us_cum = 4_000.0; mem_mb = 12.0; invocations_cum = 2 };
  Trace.record_resource store
    { Trace.rs_ts = 2.0; container = 2; fn = "root"; cpu_us_cum = 2_000.0; mem_mb = 20.0; invocations_cum = 1 };
  match Builder.build store ~entry:"root" () with
  | Error e -> Alcotest.fail e
  | Ok g ->
      let n = Callgraph.node g g.Callgraph.root in
      (* (4000 + 2000) us over 3 invocations = 2 ms per invocation. *)
      Alcotest.(check (float 1e-6)) "avg cpu" 2.0 n.Callgraph.cpu;
      Alcotest.(check (float 1e-6)) "peak mem" 20.0 n.Callgraph.mem_mb

let test_builder_requires_invocations () =
  let store = Trace.create () in
  match Builder.build store ~entry:"ghost" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for empty window"

let test_known_calls_adds_missing_edges () =
  let store = Trace.create () in
  Trace.record_span store { Trace.ts = 0.0; caller = None; callee = "root"; kind = Trace.Sync };
  Trace.record_span store { Trace.ts = 1.0; caller = Some "root"; callee = "seen"; kind = Trace.Sync };
  Trace.record_span store { Trace.ts = 2.0; caller = Some "seen"; callee = "shared"; kind = Trace.Sync };
  match Builder.build store ~entry:"root" () with
  | Error e -> Alcotest.fail e
  | Ok g ->
      (* The code also has root -> shared, unobserved in this window. *)
      let g' = Builder.known_calls ~code_edges:[ ("root", "shared", Callgraph.Sync) ] g in
      Alcotest.(check int) "edge added" (List.length g.Callgraph.edges + 1) (List.length g'.Callgraph.edges);
      let added =
        List.find
          (fun (e : Callgraph.edge) ->
            (Callgraph.node g' e.Callgraph.src).Callgraph.name = "root"
            && (Callgraph.node g' e.Callgraph.dst).Callgraph.name = "shared")
          g'.Callgraph.edges
      in
      Alcotest.(check int) "dashed edges carry weight 0" 0 added.Callgraph.weight;
      (* Idempotent for edges already present. *)
      let g'' = Builder.known_calls ~code_edges:[ ("root", "seen", Callgraph.Sync) ] g' in
      Alcotest.(check int) "no duplicate" (List.length g'.Callgraph.edges) (List.length g''.Callgraph.edges)

(* --- failure accounting --- *)

(* An allocation past the limit kills the container; the request that
   caused it is delivered exactly one failure, and the pool recovers. *)
let test_oom_on_use_mem () =
  let engine = fresh_dial ~mem_limit:64.0 () in
  warm engine;
  let count = ref 0 and last_ok = ref true in
  Engine.submit engine ~entry:"dial" ~req:(req ~cpu:0 ~io:0 ~mem:200) ~on_done:(fun ~latency_us:_ ~ok ->
      incr count;
      last_ok := ok);
  Engine.drain engine;
  Alcotest.(check int) "delivered exactly once" 1 !count;
  Alcotest.(check bool) "as a failure" false !last_ok;
  let c = Engine.counters engine in
  Alcotest.(check int) "oom counted" 1 c.Engine.oom_kills;
  Alcotest.(check int) "failure counted once" 1 c.Engine.failed;
  let results = run_n engine [ req ~cpu:1000 ~io:0 ~mem:0 ] in
  Alcotest.(check bool) "replacement container serves again" true (snd (List.hd results))

(* An OOM with several requests in flight on the same container: every one
   of them fails exactly once, and events the dead container left behind
   (io wake-ups, the spike's release) must not touch its replacement. *)
let test_oom_fails_each_inflight_once () =
  let engine = fresh_dial ~mem_limit:64.0 ~max_scale:1 () in
  warm engine;
  let n = 4 in
  let deliveries = Array.make n 0 in
  let oks = Array.make n true in
  for i = 0 to n - 1 do
    Engine.submit engine ~entry:"dial" ~req:(req ~cpu:0 ~io:200_000 ~mem:0)
      ~on_done:(fun ~latency_us:_ ~ok ->
        deliveries.(i) <- deliveries.(i) + 1;
        oks.(i) <- ok)
  done;
  Engine.run_until engine (Engine.now engine +. 50_000.0);
  let spiked, oomed = Engine.mem_spike engine ~fn:"dial" ~mb:500.0 ~duration_us:10_000.0 in
  Alcotest.(check int) "the one container was spiked" 1 spiked;
  Alcotest.(check int) "and OOMed" 1 oomed;
  Engine.drain engine;
  Array.iteri
    (fun i d -> Alcotest.(check int) (Printf.sprintf "request %d delivered exactly once" i) 1 d)
    deliveries;
  Array.iteri (fun i ok -> Alcotest.(check bool) (Printf.sprintf "request %d failed" i) false ok) oks;
  let c = Engine.counters engine in
  Alcotest.(check int) "one oom kill" 1 c.Engine.oom_kills;
  Alcotest.(check int) "every in-flight request failed once" n c.Engine.failed;
  Alcotest.(check int) "only the warm-up completed" 1 c.Engine.completed;
  let results = run_n engine [ req ~cpu:1000 ~io:0 ~mem:0 ] in
  Alcotest.(check bool) "fresh container serves after the kill" true (snd (List.hd results));
  Alcotest.(check int) "no stale failures from the dead container" n (Engine.counters engine).Engine.failed

let suite =
  [
    ( "engine.cpu",
      [
        Alcotest.test_case "ps sharing" `Quick test_ps_sharing_two_tasks_one_core;
        Alcotest.test_case "cfs throttle on long bursts" `Quick test_cfs_throttle_applies_to_long_bursts;
        Alcotest.test_case "io is not cpu" `Quick test_io_does_not_consume_cpu;
      ] );
    ( "engine.lifecycle",
      [
        Alcotest.test_case "cold start composition" `Quick test_cold_start_scales_with_image;
        Alcotest.test_case "function update resets pool" `Quick test_replacing_deployment_resets_pool;
        Alcotest.test_case "rolling update seamless (5.5)" `Quick test_rolling_update_is_seamless;
        Alcotest.test_case "total base mem" `Quick test_total_base_mem_tracks_pools;
        Alcotest.test_case "workspace released" `Quick test_workspace_released_after_request;
      ] );
    ( "engine.loadgen",
      [
        Alcotest.test_case "closed loop counts" `Quick test_closed_loop_counts;
        Alcotest.test_case "think time" `Quick test_closed_loop_think_time;
        Alcotest.test_case "open loop rate" `Quick test_open_loop_rate_respected;
        Alcotest.test_case "deterministic" `Quick test_simulation_is_deterministic;
      ] );
    ( "engine.sched",
      [
        Alcotest.test_case "dial open loop = golden fingerprint" `Quick
          test_dial_golden_fingerprint;
        Alcotest.test_case "compose-post = golden fingerprint" `Quick
          test_compose_post_golden_fingerprint;
        Alcotest.test_case "fan-out quilt plan = golden fingerprint" `Quick
          test_fan_out_quilt_golden_fingerprint;
        Alcotest.test_case "compose-post cm = golden fingerprint" `Quick
          test_compose_post_cm_golden_fingerprint;
        Alcotest.test_case "async compose-post = golden fingerprint" `Quick
          test_async_compose_post_golden_fingerprint;
        Alcotest.test_case "global stats race-free across domains" `Quick
          test_global_stats_race_free_under_domains;
      ] );
    ( "engine.topology",
      [
        Alcotest.test_case "flat topology = seed, bit-identical" `Quick
          test_flat_topology_bit_identical;
        Alcotest.test_case "degenerate 1-node cluster = seed" `Quick
          test_degenerate_cluster_matches_seed;
      ] );
    ( "place.topology",
      [
        Alcotest.test_case "nodes, racks, rtt tiers" `Quick test_topology_basics;
        Alcotest.test_case "validation" `Quick test_topology_validation;
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
    ( "engine.failures",
      [
        Alcotest.test_case "oom delivered exactly once" `Quick test_oom_on_use_mem;
        Alcotest.test_case "oom fails all in-flight once" `Quick test_oom_fails_each_inflight_once;
      ] );
    ( "tracing.builder",
      [
        Alcotest.test_case "async edge kind" `Quick test_builder_async_edge_kind;
        Alcotest.test_case "window filter" `Quick test_builder_window_filter;
        Alcotest.test_case "container aggregation" `Quick test_builder_aggregates_containers;
        Alcotest.test_case "requires invocations" `Quick test_builder_requires_invocations;
        Alcotest.test_case "known calls" `Quick test_known_calls_adds_missing_edges;
      ] );
  ]
