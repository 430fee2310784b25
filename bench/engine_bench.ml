(* Simulator-throughput benchmark: the timer-wheel scheduler and the
   allocation-free event hot path, plus the content-addressed merge cache
   under drift-triggered re-merges.

   Scenario A replays a million-request open-loop workload (a 50k-request
   one at smoke scale) and checks every run against a fingerprint pinned
   for each scale: outcomes, the exact latency distribution, counters,
   events and peak queue depth.  The pins were recorded when the seed's
   binary-heap scheduler still ran beside the wheel and both produced
   them, so a throughput number can never come from a behaviour change:
   the bench fails loudly on any difference.  The seed heap's full-scale
   row is kept in BENCH_engine.json as history.

   The profile row counts the engine's events and the minor words of one
   warm §3 profiling pass ([Quilt.profile Config.default] on compose-post).
   That pass is the same size at every scale, so a smoke run checks its
   counters against the committed BENCH_engine.json.

   Scenario B runs the online control plane's "path-shift" drift scenario
   (profile, merge, drift, re-merge, canary) across several seeds with the
   merge cache cold at the start, then reports the cache hit rate: every
   re-merge after the first derives the same member sources and grouping
   fingerprints, so compilation is skipped.  Writes BENCH_engine.json. *)

module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Workflow = Quilt_apps.Workflow
module Ast = Quilt_lang.Ast
module Pipeline = Quilt_merge.Pipeline
module Scenario = Quilt_control.Scenario
module Json = Quilt_util.Json
module Quilt = Quilt_core.Quilt
module Config = Quilt_core.Config

(* --- Scenario A: open-loop throughput --- *)

(* A single configurable function: the request selects the work.  A CPU
   burst then sixteen I/O waits per request — a typical I/O-bound handler
   shape (do a little work, then call out repeatedly) — so each request
   costs the scheduler ~20 timer events; long I/O phases keep hundreds of
   thousands of timers outstanding (the regime where the scheduler
   dominates), and a small memory phase touches the monitor. *)
let dial_fn =
  let round rest = Ast.Seq (Ast.Sleep_io (Ast.Json_get_int (Ast.Var "req", "io")), rest) in
  let rec rounds n rest = if n = 0 then rest else round (rounds (n - 1) rest) in
  {
    Ast.fn_name = "dial";
    fn_lang = "rust";
    mergeable = true;
    body =
      Ast.Seq
        ( Ast.Burn (Ast.Json_get_int (Ast.Var "req", "cpu")),
          rounds 16
            (Ast.Seq (Ast.Use_mem (Ast.Json_get_int (Ast.Var "req", "mem")), Ast.Json_empty)) );
  }

(* A fixed pool of request bodies: enough variety to spread work (and let
   the engine's calltree cache do its job, as a warm production path
   would), with I/O of 0.3-0.9s so the bench's request rates keep a
   six-digit timer population outstanding — the regime where the seed heap
   pays log-depth polymorphic compares (and a cache miss per sift level)
   per operation and the wheel pays a constant bucket insert.  Timer
   deadlines stay spread over the wheel's buckets regardless of pool size:
   arrivals are Poisson, so deadline = continuous arrival time + pooled
   I/O duration. *)
let req_pool =
  Array.init 499 (fun i ->
      let cpu = 40 + (i * 7 mod 40) in
      let io = 300_000 + (i * 104_729 mod 600_000) in
      let mem = 1 + (i mod 4) in
      Printf.sprintf "{\"cpu\":%d,\"io\":%d,\"mem\":%d}" cpu io mem)

let gen_req rng = req_pool.(Quilt_util.Rng.int rng (Array.length req_pool))

let dial_wf =
  {
    Workflow.wf_name = "dial";
    entry = "dial";
    functions = [ dial_fn ];
    gen_req;
    code_edges = [];
  }

let deploy_dial engine =
  Engine.deploy engine
    {
      Engine.service = "dial";
      vcpus = 2.0;
      mem_limit_mb = 256.0;
      base_mem_mb = 8.0;
      image_mb = 30.0;
      max_scale = 768;
      eager_http = false;
      mode = Engine.Plain;
    }

(* The equivalence fingerprint: everything the load generator and the
   engine counters observe. *)
let fingerprint (r : Loadgen.result) =
  ( (r.Loadgen.successes, r.Loadgen.failures, r.Loadgen.offered),
    (Loadgen.median_ms r, Loadgen.p99_ms r, Loadgen.mean_ms r, r.Loadgen.throughput_rps),
    r.Loadgen.counters )

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

(* Tall containers (many admitted tasks each) let the open loop hold tens of
   thousands of requests in flight without cold-start storms dominating. *)
let bench_params =
  { Quilt_platform.Params.default with Quilt_platform.Params.max_tasks_per_container = 512 }

(* Fingerprints of the scenario-A run at each scale: [fingerprint] plus
   events processed and peak queue depth. *)
let pinned_smoke =
  ( ( (49952, 0, 49952),
      (9633.7919999999995, 14352.384, 9639.7937774959209, 0.0),
      { no_faults with Engine.cold_starts = 768; completed = 49952 } ),
    1065343,
    49953 )

let pinned_full =
  ( ( (1019954, 0, 1019954),
      (9633.7919999999995, 14352.384, 9593.0436768739382, 21555.941176470587),
      { no_faults with Engine.cold_starts = 768; completed = 1019954 } ),
    21442711,
    288723 )

(* Scenario A's load at the current scale: 30k req/s for 34 virtual
   seconds = one million offered requests; with 16 I/O waits of 0.3-0.9s
   per request, ~290k timers are outstanding at steady state.  Smoke keeps
   the same shape over a 2.5s window. *)
let load () = if !Common.smoke then (20_000.0, 2.5e6) else (30_000.0, 34.0e6)

(* One run of scenario A, aborting unless it equals the fingerprint pinned
   for its scale; returns the run's deterministic counters.  [setup] runs
   after deployment and before the load starts — the obs bench uses it to
   attach a span recorder to an otherwise identical arm. *)
let run_arm ?(setup = fun (_ : Engine.t) -> ()) () =
  let rate_rps, duration_us = load () in
  let engine =
    Engine.create ~seed:11 ~params:bench_params ~registry:(Workflow.registry [ dial_wf ]) ()
  in
  deploy_dial engine;
  setup engine;
  Engine.reset_global_stats ();
  let minor0 = Gc.minor_words () in
  let r =
    Loadgen.run_open_loop engine ~entry:"dial" ~gen_req ~rate_rps ~duration_us ~warmup_us:0.0
      ~progress:(fun ~sent ~completed ->
        if not !Common.smoke then
          Printf.printf "    %dk sent, %dk done\r%!" (sent / 1000) (completed / 1000))
      ()
  in
  let minor_words = Gc.minor_words () -. minor0 in
  if not !Common.smoke then print_newline ();
  let events = Engine.events_processed engine in
  let depth = Engine.peak_queue_depth engine in
  let pinned = if !Common.smoke then pinned_smoke else pinned_full in
  if (fingerprint r, events, depth) <> pinned then begin
    Printf.printf "  DIVERGENCE: the simulation differs from the pinned fingerprint!\n";
    failwith "engine bench: result differs from the pinned fingerprint"
  end;
  [
    ("offered", Json.Int r.Loadgen.offered);
    ("successes", Json.Int r.Loadgen.successes);
    ("events", Json.Int events);
    ("peak_queue_depth", Json.Int depth);
    ("minor_words", Json.Float minor_words);
    ("minor_words_per_request", Json.Float (minor_words /. float_of_int (max 1 r.Loadgen.offered)));
    ("median_ms", Json.Float (Loadgen.median_ms r));
    ("p99_ms", Json.Float (Loadgen.p99_ms r));
  ]

(* The seed binary-heap scheduler's full-scale run of scenario A, kept for
   comparison with the wheel run it was measured beside ([wheel_wall_s]).
   That scheduler no longer exists, so this row is never re-measured. *)
let seed_heap_history =
  Json.Obj
    [
      ("sched", Json.String "seed binary heap");
      ("scale", Json.String "full");
      ("wall_s", Json.Float 139.200973034);
      ("wheel_wall_s", Json.Float 35.7804100513);
      ("events", Json.Int 21442711);
      ("events_per_sec", Json.Float 154041.387302);
      ("peak_queue_depth", Json.Int 288723);
      ("minor_words", Json.Float 3305557555.0);
      ("minor_words_per_request", Json.Float 3240.88885871);
      ("offered", Json.Int 1019954);
      ("successes", Json.Int 1019954);
      ("median_ms", Json.Float 9633.792);
      ("p99_ms", Json.Float 14352.384);
    ]

let run_throughput () =
  let rate_rps, duration_us = load () in
  Common.subsection
    (Printf.sprintf "open loop: %.0f req/s for %.0fs virtual (%s)" rate_rps
       (duration_us /. 1e6)
       (if !Common.smoke then "smoke" else "full"));
  let counters, wall = Common.measure run_arm in
  Printf.printf "  fingerprint = pinned (%s): yes\n" (if !Common.smoke then "smoke" else "full");
  Common.row "wheel" wall counters

(* --- Profiling pass: events and minor words per request --- *)

(* [Common.measure] runs the pass once untimed first, so the counted run is
   warm: lazy initialisation is left out.  [requests] is the profiled
   graph's N, the requests its window counted. *)
let run_profile () =
  Common.subsection "profile: Quilt.profile Config.default on compose-post";
  let wfs = Quilt_apps.Deathstar.social_network ~async:false () in
  let compose = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let profile_once () =
    Engine.reset_global_stats ();
    let minor0 = Gc.minor_words () in
    let g =
      match Quilt.profile Config.default ~workflows:[ compose ] compose with
      | Ok g -> g
      | Error e -> failwith ("engine bench: profiling failed: " ^ e)
    in
    let minor_words = Gc.minor_words () -. minor0 in
    let events, _ = Engine.global_stats () in
    let requests = g.Quilt_dag.Callgraph.invocations in
    let per x = x /. float_of_int (max 1 requests) in
    [
      ("requests", Json.Int requests);
      ("events", Json.Int events);
      ("minor_words", Json.Float minor_words);
      ("events_per_request", Json.Float (per (float_of_int events)));
      ("minor_words_per_request", Json.Float (per minor_words));
    ]
  in
  let counters, wall = Common.measure profile_once in
  let row = Common.row "profile" wall counters in
  if !Common.smoke then
    Common.check_committed "engine"
      [ "requests"; "events"; "minor_words"; "events_per_request"; "minor_words_per_request" ]
      [ row ];
  row

(* --- Scenario B: merge-cache hit rate under drift-triggered re-merges --- *)

let run_merge_cache () =
  let seeds = if !Common.smoke then [ 0; 1 ] else List.init 12 (fun i -> i) in
  Common.subsection
    (Printf.sprintf "merge cache: path-shift drift scenario x %d seeds" (List.length seeds));
  Pipeline.reset_cache ();
  let remerges = ref 0 in
  List.iter
    (fun seed ->
      match Scenario.run ~smoke:true ~seed ~with_controller:true "path-shift" with
      | Error e -> failwith ("engine bench: scenario failed: " ^ e)
      | Ok o ->
          (match o.Scenario.o_summary with
          | Some s -> remerges := !remerges + s.Quilt_control.Controller.s_remerges
          | None -> ());
          let hits, misses = Pipeline.cache_stats () in
          Printf.printf "  seed %2d: %3d hits / %3d misses so far\n%!" seed hits misses)
    seeds;
  let hits, misses = Pipeline.cache_stats () in
  let total = hits + misses in
  let rate = if total = 0 then 0.0 else float_of_int hits /. float_of_int total in
  Printf.printf "  %d merge requests (%d controller re-merges): %d hits, %d misses -> %.1f%% hit rate\n"
    total !remerges hits misses (100.0 *. rate);
  (hits, misses, rate, !remerges)

let run () =
  Common.section "engine: timer-wheel scheduler throughput";
  let wheel = run_throughput () in
  let profile = run_profile () in
  let hits, misses, hit_rate, remerges = run_merge_cache () in
  Common.paper_note
    [
      "The run replays the seed scheduler's exact event sequence (enforced above),";
      "so its speed over the seed heap's history row is pure scheduler +";
      "allocation work: monomorphic float keys, a bucketed wheel for the dense";
      "near-future timers, freelist event records instead of per-event";
      "closures, and scratch-buffer container picking.";
    ];
  Common.write_section "engine" [ wheel; profile ]
    ~extra:
      [
        ("history", Json.Obj [ ("seed_heap", seed_heap_history) ]);
        ( "merge_cache",
          Json.Obj
            [
              ("hits", Json.Int hits);
              ("misses", Json.Int misses);
              ("hit_rate", Json.Float hit_rate);
              ("controller_remerges", Json.Int remerges);
            ] );
      ]
