(* The quilt command-line tool: inspect, decide, merge, and benchmark the
   bundled workflows on the simulated platform.

     quilt list                       workflows available
     quilt inspect compose-post      profile and print the call graph
     quilt decide compose-post       profile + run the decision algorithm
     quilt merge compose-post        run the full merge pipeline; --dump-ir
     quilt bench compose-post        baseline-vs-quilt latency comparison
     quilt adapt path-shift          online control plane on a drift scenario
     quilt chaos crashstorm          fault injection across the three arms
     quilt place compose-post        place a workflow on the example cluster
     quilt obs compose-post          span tracing + live-profiler re-decision *)

module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Callgraph = Quilt_dag.Callgraph
module Types = Quilt_cluster.Types
module Deathstar = Quilt_apps.Deathstar
module Special = Quilt_apps.Special
module Workflow = Quilt_apps.Workflow
module Config = Quilt_core.Config
module Quilt = Quilt_core.Quilt
module Pipeline = Quilt_merge.Pipeline
module Sizes = Quilt_merge.Sizes

let workflows ~async =
  Deathstar.all ~async ()
  @ [ Special.modified_nearby_cinema (); Special.noop (); Special.cross_language ();
      Special.fan_out ~callee_mem_mb:14 (); Special.routed () ]

let find_workflow ~async name =
  match List.find_opt (fun w -> w.Workflow.wf_name = name) (workflows ~async) with
  | Some wf -> wf
  | None ->
      Printf.eprintf "unknown workflow %s; try `quilt list`\n" name;
      exit 1

(* --- commands --- *)

let list_cmd () =
  List.iter
    (fun wf ->
      Printf.printf "%-22s %2d functions, entry %s, languages {%s}\n" wf.Workflow.wf_name
        (List.length wf.Workflow.functions)
        wf.Workflow.entry
        (String.concat ", "
           (List.sort_uniq compare (List.map (fun f -> f.Quilt_lang.Ast.fn_lang) wf.Workflow.functions))))
    (workflows ~async:false)

let profile_graph ~async name =
  let wf = find_workflow ~async name in
  match Quilt.profile Config.default ~workflows:[ wf ] wf with
  | Ok g -> (wf, g)
  | Error e ->
      Printf.eprintf "profiling failed: %s\n" e;
      exit 1

let inspect_cmd async dot name =
  let _, g = profile_graph ~async name in
  if dot then print_string (Callgraph.to_dot g) else Format.printf "%a@." Callgraph.pp g

let decide_cmd async name =
  let wf, g = profile_graph ~async name in
  match Quilt.optimize ~graph:g Config.default ~workflows:[ wf ] wf with
  | Ok t ->
      Format.printf "%a@." (Types.pp_solution g) t.Quilt.solution;
      print_string (Quilt.describe t)
  | Error e ->
      Printf.eprintf "decision failed: %s\n" e;
      exit 1

let merge_cmd async dump_ir req name =
  let wf = find_workflow ~async name in
  let report =
    Pipeline.merge_group
      ~lookup:(fun svc -> Workflow.lookup wf svc)
      ~members:(Workflow.fn_names wf) ~root:wf.Workflow.entry ()
  in
  Printf.printf "merged %s: %d rounds, %d symbols stripped, languages {%s}, %.2f MB\n"
    wf.Workflow.wf_name
    (List.length report.Pipeline.rounds)
    report.Pipeline.removed_symbols
    (String.concat ", " report.Pipeline.languages)
    (Sizes.binary_size_mb report.Pipeline.merged_module);
  List.iter
    (fun (callee, sites) -> Printf.printf "  merged %-24s (%d call sites rewritten)\n" callee sites)
    report.Pipeline.rounds;
  (* Validation run on the compiled engine (QVM). *)
  let req =
    match req with Some r -> r | None -> wf.Workflow.gen_req (Quilt_util.Rng.create 1)
  in
  (match Pipeline.validate ~host:Quilt_ir.Interp.echo_host report ~req with
  | Ok (res, stats) ->
      Printf.printf "validated on compiled engine: %s -> %s (%d steps)\n" req res
        stats.Quilt_ir.Interp.steps
  | Error e ->
      Printf.eprintf "validation on compiled engine failed: %s\n" e;
      exit 1);
  if dump_ir then print_string (Quilt_ir.Pp.to_string report.Pipeline.merged_module)

(* Lint either a .qir file or the merged module of a bundled workflow.
   Base verifier findings always; the strict tier adds typing/dominance
   checks and the W-series lints; the interference analyzer always runs
   (its findings are what merging introduces).  Exit 1 on any Error. *)
let lint_cmd async strict json target =
  let modul =
    if Filename.check_suffix target ".qir" || Sys.file_exists target then begin
      let fail msg =
        prerr_endline msg;
        exit 1
      in
      match Quilt_ir.Parser.parse_module (In_channel.with_open_text target In_channel.input_all) with
      | m -> m
      | exception Sys_error e ->
          fail (if String.starts_with ~prefix:target e then e else target ^ ": " ^ e)
      | exception Quilt_ir.Parser.Error (line, e) ->
          fail (Printf.sprintf "%s:%d: parse error: %s" target line e)
    end
    else begin
      let wf = find_workflow ~async target in
      let report =
        Pipeline.merge_group
          ~lookup:(fun svc -> Workflow.lookup wf svc)
          ~members:(Workflow.fn_names wf) ~root:wf.Workflow.entry ()
      in
      report.Pipeline.merged_module
    end
  in
  let module Verify = Quilt_ir.Verify in
  let diags = Verify.run ~strict modul @ Verify.interference modul in
  let errors =
    List.length (List.filter (fun d -> d.Verify.severity = Verify.Error) diags)
  in
  if json then begin
    let module Json = Quilt_util.Json in
    let of_diag (d : Verify.diagnostic) =
      Json.obj
        ([
           ("code", Json.str d.Verify.code);
           ( "severity",
             Json.str (match d.Verify.severity with Verify.Error -> "error" | Verify.Warning -> "warning") );
           ("where", Json.str d.Verify.where);
         ]
        @ (match d.Verify.block with Some b -> [ ("block", Json.str b) ] | None -> [])
        @ [ ("message", Json.str d.Verify.message) ])
    in
    print_endline
      (Json.to_string
         (Json.obj
            [
              ("module", Json.str modul.Quilt_ir.Ir.mname);
              ("instrs", Json.Int (Quilt_ir.Ir.instr_count modul));
              ("strict", Json.Bool strict);
              ("errors", Json.Int errors);
              ("diagnostics", Json.List (List.map of_diag diags));
            ]))
  end
  else begin
    List.iter (fun d -> print_endline (Verify.to_string d)) diags;
    Printf.printf "%s: %d instrs, %d diagnostics (%d errors)%s\n" modul.Quilt_ir.Ir.mname
      (Quilt_ir.Ir.instr_count modul) (List.length diags) errors
      (if strict then " [strict]" else "")
  end;
  if errors > 0 then exit 1

let bench_cmd async rate duration seed name =
  let wf = find_workflow ~async name in
  let cfg = { Config.default with Config.seed = Config.default.Config.seed + seed } in
  let t =
    match Quilt.optimize cfg ~workflows:[ wf ] wf with
    | Ok t -> t
    | Error e ->
        Printf.eprintf "optimize failed: %s\n" e;
        exit 1
  in
  let measure engine =
    Loadgen.run_open_loop engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req ~rate_rps:rate
      ~duration_us:(duration *. 1e6)
      ~warmup_us:(Float.min (duration *. 1e6 /. 4.0) 10_000_000.0)
      ~seed ()
  in
  let b_engine = Quilt.fresh_platform ~seed:(7 + seed) ~workflows:[ wf ] () in
  let b = measure b_engine in
  let q_engine = Quilt.fresh_platform ~seed:(7 + seed) ~workflows:[ wf ] () in
  Quilt.apply q_engine t;
  let q = measure q_engine in
  Printf.printf "workflow %s at %.0f rps for %.0f s:\n" name rate duration;
  Printf.printf "  baseline: median %8.2f ms   p99 %8.2f ms   throughput %7.0f rps\n"
    (Loadgen.median_ms b) (Loadgen.p99_ms b) b.Loadgen.throughput_rps;
  Printf.printf "  quilt   : median %8.2f ms   p99 %8.2f ms   throughput %7.0f rps\n"
    (Loadgen.median_ms q) (Loadgen.p99_ms q) q.Loadgen.throughput_rps

(* --engine-stats: wrap a command body with process-global simulator and
   merge-cache counters and print an events/sec summary afterwards.  The
   global counters exist precisely for this: adapt/chaos spin up many
   engines internally (profiling runs, canaries, matrix arms). *)
let with_engine_stats enabled f =
  if not enabled then f ()
  else begin
    Engine.reset_global_stats ();
    Pipeline.reset_cache ();
    let t0 = Unix.gettimeofday () in
    f ();
    let wall_s = Unix.gettimeofday () -. t0 in
    let events, peak = Engine.global_stats () in
    let hits, misses = Pipeline.cache_stats () in
    Printf.printf "engine stats: %d events in %.2fs wall (%.0f events/s), peak queue depth %d\n"
      events wall_s
      (float_of_int events /. Float.max 1e-9 wall_s)
      peak;
    let lookups = hits + misses in
    if lookups = 0 then print_endline "merge cache: no merges performed"
    else
      Printf.printf "merge cache: %d/%d hits (%.1f%% hit rate)\n" hits lookups
        (100.0 *. float_of_int hits /. float_of_int lookups)
  end

(* [adapt] runs the adaptive scenarios and [chaos] the chaos cells; both
   families live in one runner, so each command checks its own names. *)
let check_scenario cmd known name =
  if not (List.mem name known) then begin
    Printf.eprintf "%s failed: unknown scenario %S (known: %s)\n" cmd name
      (String.concat ", " known);
    exit 1
  end

let adapt_cmd (seed, smoke, engine_stats) no_controller scenario =
  check_scenario "adapt" Quilt_control.Scenario.names scenario;
  with_engine_stats engine_stats @@ fun () ->
  let run wc =
    match Quilt_control.Scenario.run ~smoke ~seed ~with_controller:wc scenario with
    | Ok o -> o
    | Error e ->
        Printf.eprintf "adapt failed: %s\n" e;
        exit 1
  in
  if no_controller then Quilt_control.Scenario.print_outcome (run false)
  else begin
    let o = run true in
    Quilt_control.Scenario.print_outcome o;
    let stale = run false in
    let ps = Quilt_control.Scenario.post_shift_phase scenario in
    match
      ( List.assoc_opt ps o.Quilt_control.Scenario.o_phased.Loadgen.per_phase,
        List.assoc_opt ps stale.Quilt_control.Scenario.o_phased.Loadgen.per_phase )
    with
    | Some a, Some s ->
        Printf.printf "post-shift (%s) p99: %.2f ms adapted vs %.2f ms stale\n" ps
          (Loadgen.p99_ms a) (Loadgen.p99_ms s)
    | _ -> ()
  end

let chaos_cmd (seed, smoke, engine_stats) policy scenario =
  with_engine_stats engine_stats @@ fun () ->
  let module Scenario = Quilt_control.Scenario in
  let names = if scenario = "all" then Scenario.chaos_names else [ scenario ] in
  if scenario <> "all" then check_scenario "chaos" Scenario.chaos_names scenario;
  match Scenario.run_matrix ~smoke ~seed ~policy names with
  | Error e ->
      Printf.eprintf "chaos failed: %s\n" e;
      exit 1
  | Ok outcomes ->
      Printf.printf "fault matrix (%s policy, seed %d%s):\n" policy seed
        (if smoke then ", smoke" else "");
      List.iter Scenario.print_outcome outcomes

let place_cmd async policy_name rate duration (seed, smoke, engine_stats) rebalance name =
  with_engine_stats engine_stats @@ fun () ->
  let duration = if smoke then Float.min duration 6.0 else duration in
  let module Topology = Quilt_place.Topology in
  let module Placement = Quilt_place.Placement in
  let policy =
    match Placement.policy_of_string policy_name with
    | Some p -> p
    | None ->
        Printf.eprintf "unknown policy %s (first-fit|best-fit|locality|spread)\n" policy_name;
        exit 1
  in
  let wf = find_workflow ~async name in
  let topo = Topology.example () in
  Printf.printf "cluster: %s\n" (Topology.describe topo);
  let demands =
    List.map
      (fun f ->
        Placement.demand ~service:f.Quilt_lang.Ast.fn_name ~vcpus:Config.default.Config.vcpus
          ~mem_mb:Config.default.Config.mem_limit_mb)
      wf.Workflow.functions
  in
  let affinities =
    List.map
      (fun (s, d, _) -> { Placement.a_src = s; a_dst = d; a_weight = 1.0 })
      wf.Workflow.code_edges
  in
  let placement = Placement.plan ~seed ~affinities topo policy demands in
  Printf.printf "placement (%s):\n%s" (Placement.policy_name policy)
    (Format.asprintf "%a" Placement.pp placement);
  if placement.Placement.rejected <> [] then exit 1;
  let engine = Quilt.fresh_platform ~seed:(7 + seed) ~workflows:[ wf ] () in
  Engine.set_topology ~assign:placement.Placement.placed engine topo;
  let reb =
    if rebalance then begin
      let r = Quilt_control.Rebalancer.create engine () in
      Quilt_control.Rebalancer.start r ~until:(duration *. 1e6);
      Some r
    end
    else None
  in
  let res =
    Loadgen.run_open_loop engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req
      ~rate_rps:rate ~duration_us:(duration *. 1e6)
      ~warmup_us:(Float.min (duration *. 1e6 /. 4.0) 10_000_000.0)
      ~seed ()
  in
  Printf.printf "%s at %.0f rps for %.0f s: median %.2f ms, p99 %.2f ms, availability %.2f%%\n"
    name rate duration (Loadgen.median_ms res) (Loadgen.p99_ms res)
    (100.0 *. Loadgen.availability res);
  let h = Engine.topo_counters engine in
  Printf.printf
    "hops: %d same-node, %d same-rack, %d cross-rack; %d image-cache hits, %d capacity denials\n"
    h.Engine.hops_same_node h.Engine.hops_same_rack h.Engine.hops_cross_rack
    h.Engine.image_cache_hits h.Engine.capacity_denials;
  Array.iter
    (fun nl ->
      Printf.printf "  %-10s %4.1f/%4.1f vCPU, %6.0f/%6.0f MB, %d containers\n"
        nl.Engine.nl_node.Topology.node_name nl.Engine.nl_used_vcpus
        nl.Engine.nl_node.Topology.vcpus nl.Engine.nl_used_mem_mb
        nl.Engine.nl_node.Topology.mem_mb nl.Engine.nl_containers)
    (Engine.node_loads engine);
  match reb with
  | None -> ()
  | Some r ->
      let s = Quilt_control.Rebalancer.summary r in
      Printf.printf
        "rebalancer: %d ticks, %d migrations (%d passed, %d reverted), %d holds, %d skips\n"
        s.Quilt_control.Rebalancer.s_ticks s.Quilt_control.Rebalancer.s_migrations
        s.Quilt_control.Rebalancer.s_passes s.Quilt_control.Rebalancer.s_reverts
        s.Quilt_control.Rebalancer.s_holds s.Quilt_control.Rebalancer.s_skips;
      List.iter
        (fun e ->
          if e.Quilt_control.Rebalancer.ev_detail <> "" then
            Printf.printf "  [%7.2fs] %-16s %s\n"
              (e.Quilt_control.Rebalancer.ev_ts /. 1e6)
              (Quilt_control.Rebalancer.kind_name e.Quilt_control.Rebalancer.ev_kind)
              e.Quilt_control.Rebalancer.ev_detail)
        (Quilt_control.Rebalancer.events r)

(* quilt obs: run the merged-vs-unmerged comparison with the span recorder
   attached, close the profile→merge loop by re-deciding from the observed
   spans, and export Chrome-trace / folded-flamegraph / metrics files. *)
let obs_cmd async rate duration sample trace_out flame_out metrics_out
    (seed, smoke, engine_stats) name =
  with_engine_stats engine_stats @@ fun () ->
  let module Recorder = Quilt_obs.Recorder in
  let module Profiler = Quilt_obs.Profiler in
  let module Metrics = Quilt_obs.Metrics in
  let module Export = Quilt_obs.Export in
  let wf = find_workflow ~async name in
  let duration = if smoke then Float.min duration 6.0 else duration in
  let cfg = { Config.default with Config.seed = Config.default.Config.seed + seed } in
  let plan =
    match Quilt.optimize cfg ~workflows:[ wf ] wf with
    | Ok t -> t
    | Error e ->
        Printf.eprintf "optimize failed: %s\n" e;
        exit 1
  in
  let registry = Metrics.create () in
  let run_arm ~arm ~apply_plan =
    let engine = Quilt.fresh_platform ~seed:(7 + seed) ~workflows:[ wf ] () in
    if apply_plan then Quilt.apply engine plan;
    let recorder = Recorder.create ~sample_period:sample ~seed () in
    Recorder.attach recorder engine;
    let res =
      Loadgen.run_open_loop engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req
        ~rate_rps:rate ~duration_us:(duration *. 1e6)
        ~warmup_us:(Float.min (duration *. 1e6 /. 4.0) 10_000_000.0)
        ~seed ()
    in
    let labels = [ ("arm", arm); ("workflow", name) ] in
    Metrics.record_result registry ~labels res;
    Metrics.record_engine registry ~labels engine;
    Metrics.record_recorder registry ~labels recorder;
    (res, recorder)
  in
  let b, rb = run_arm ~arm:"baseline" ~apply_plan:false in
  let q, rq = run_arm ~arm:"quilt" ~apply_plan:true in
  Printf.printf "workflow %s at %.0f rps for %.0f s, head-sampling 1/%d:\n" name rate duration
    sample;
  let pr label (r : Loadgen.result) recorder =
    Printf.printf
      "  %-8s median %7.2f ms  p99 %7.2f ms | %d/%d roots sampled, %d spans (%d dropped)\n"
      label (Loadgen.median_ms r) (Loadgen.p99_ms r)
      (Recorder.sampled_roots recorder)
      (Recorder.seen_roots recorder) (Recorder.recorded recorder) (Recorder.dropped recorder)
  in
  pr "baseline" b rb;
  pr "quilt" q rq;
  (* Close the loop: re-decide from the baseline arm's observed spans and
     compare with the ground-truth plan's grouping. *)
  (match Profiler.callgraph ~code_edges:wf.Workflow.code_edges ~entry:wf.Workflow.entry rb with
  | Error e -> Printf.printf "live profile: %s\n" e
  | Ok g -> (
      let g = Quilt.with_optin wf g in
      match Quilt.optimize ~graph:g cfg ~workflows:[ wf ] wf with
      | Error e -> Printf.printf "live re-decision failed: %s\n" e
      | Ok live ->
          let fp_truth = Quilt_control.Controller.fingerprint plan in
          let fp_live = Quilt_control.Controller.fingerprint live in
          Printf.printf "live-profiler decision %s ground truth [%s]\n"
            (if String.equal fp_live fp_truth then "agrees with" else "DIVERGES from")
            fp_live));
  (match trace_out with
  | Some path ->
      Export.write_file path
        (Quilt_util.Json.to_string (Export.chrome_trace [ ("baseline", rb); ("quilt", rq) ]));
      Printf.printf "wrote Chrome trace (chrome://tracing, Perfetto) to %s\n" path
  | None -> ());
  (match flame_out with
  | Some path ->
      let lines = Export.folded ~prefix:"baseline" rb @ Export.folded ~prefix:"quilt" rq in
      Export.write_file path (Export.folded_to_string lines);
      Printf.printf "wrote folded flamegraph stacks to %s\n" path
  | None -> ());
  match metrics_out with
  | Some path ->
      Export.write_file path (Quilt_util.Json.to_string (Metrics.snapshot registry));
      Printf.printf "wrote metrics snapshot to %s\n" path
  | None -> ()

(* --- cmdliner wiring --- *)

open Cmdliner

let async_flag =
  Arg.(value & flag & info [ "async" ] ~doc:"Use the asynchronous-invocation variant of the workflow.")

let workflow_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKFLOW")

let list_t = Cmd.v (Cmd.info "list" ~doc:"List the bundled workflows") Term.(const list_cmd $ const ())

let inspect_t =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.") in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Profile a workflow and print its call graph (§3)")
    Term.(const inspect_cmd $ async_flag $ dot $ workflow_arg)

let decide_t =
  Cmd.v
    (Cmd.info "decide" ~doc:"Profile and run the constraint-aware merging decision (§4)")
    Term.(const decide_cmd $ async_flag $ workflow_arg)

let merge_t =
  let dump = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the merged QIR module.") in
  let req =
    Arg.(
      value
      & opt (some string) None
      & info [ "req" ] ~docv:"JSON"
          ~doc:"Request for the post-merge validation run (default: a generated one).")
  in
  Cmd.v
    (Cmd.info "merge" ~doc:"Run the Figure-5 merge pipeline over a whole workflow (§5)")
    Term.(const merge_cmd $ async_flag $ dump $ req $ workflow_arg)

let lint_t =
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Add the analysis-backed tier: SSA dominance of every use, per-instruction typing, \
             phi/CFG agreement, and the unreachable-block / dead-store lints.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON diagnostics.") in
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET" ~doc:"A bundled workflow name (linted post-merge) or a .qir file.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Verify a QIR module: base well-formedness, the strict typed tier, and merge interference")
    Term.(const lint_cmd $ async_flag $ strict $ json $ target)

(* Shared flag wiring: every load-driving subcommand takes the same
   --seed/--smoke/--engine-stats set (bundled into one term so a
   command adds all of them with a single [$ run_flags]) and the same
   --rate and --duration shapes. *)

let seed_flag =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Perturb every RNG stream; the same seed reproduces the run exactly.")

let smoke_flag =
  Arg.(
    value & flag
    & info [ "smoke" ] ~doc:"Shrink the run to a few virtual seconds (CI-sized).")

let engine_stats_flag =
  Arg.(
    value & flag
    & info [ "engine-stats" ]
        ~doc:
          "Print simulator throughput (events/sec, peak event-queue depth) and the merge \
           cache's hit rate after the run.")

let run_flags =
  Term.(
    const (fun seed smoke engine_stats -> (seed, smoke, engine_stats))
    $ seed_flag $ smoke_flag $ engine_stats_flag)

(* Numeric flags that size a run: zero or negative values are command-line
   errors (exit 124), not runs that report zero latencies. *)
let positive conv ok what =
  let parse = Arg.conv_parser conv in
  Arg.conv ~docv:(Arg.conv_docv conv)
    ( (fun s ->
        match parse s with
        | Ok x when ok x -> Ok x
        | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" what s))
        | Error _ as e -> e),
      Arg.conv_printer conv )

let positive_float =
  positive Arg.float (fun x -> x > 0.0 && Float.is_finite x) "a positive number"

let positive_int = positive Arg.int (fun n -> n > 0) "a positive integer"

let rate_flag default =
  Arg.(value & opt positive_float default & info [ "rate" ] ~docv:"RPS" ~doc:"Offered load.")

let duration_flag default =
  Arg.(
    value & opt positive_float default
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Measured window (simulated).")

let bench_t =
  Cmd.v
    (Cmd.info "bench" ~doc:"Compare baseline and Quilt deployments under load")
    Term.(
      const bench_cmd $ async_flag $ rate_flag 50.0 $ duration_flag 20.0 $ seed_flag
      $ workflow_arg)

let adapt_t =
  let no_controller =
    Arg.(value & flag & info [ "no-controller" ] ~doc:"Run the phased workload without the controller.")
  in
  let scenario =
    Arg.(
      value
      & pos 0 string "path-shift"
      & info [] ~docv:"SCENARIO"
          ~doc:
            (Printf.sprintf "One of: %s." (String.concat ", " Quilt_control.Scenario.names)))
  in
  Cmd.v
    (Cmd.info "adapt" ~doc:"Run an adaptive scenario under the online control plane")
    Term.(const adapt_cmd $ run_flags $ no_controller $ scenario)

let chaos_t =
  let policy =
    Arg.(
      value & opt string "retry"
      & info [ "policy" ] ~docv:"POLICY" ~doc:"Gateway policy: none, retry, or hedged.")
  in
  let scenario =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"SCENARIO"
          ~doc:
            (Printf.sprintf "One of: %s; or all."
               (String.concat ", " Quilt_control.Scenario.chaos_names)))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Inject deterministic faults and compare baseline/CM/quilt availability")
    Term.(const chaos_cmd $ run_flags $ policy $ scenario)

let place_t =
  let policy =
    Arg.(
      value & opt string "locality"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Placement policy: first-fit, best-fit, locality, or spread.")
  in
  let rebalance =
    Arg.(
      value & flag
      & info [ "rebalance" ]
          ~doc:"Run the node-utilization rebalancer during the load and report its decisions.")
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:"Place a workflow on the example cluster topology and measure it under load")
    Term.(
      const place_cmd $ async_flag $ policy $ rate_flag 10.0 $ duration_flag 20.0 $ run_flags
      $ rebalance $ workflow_arg)

let obs_t =
  let sample =
    Arg.(
      value & opt positive_int 1
      & info [ "sample" ] ~docv:"N"
          ~doc:"Head-sample 1 in $(docv) root requests (deterministic per seed; 1 = all).")
  in
  let out name doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Trace a merged-vs-unmerged run, re-decide from the observed spans, and export \
          traces/flamegraphs/metrics")
    Term.(
      const obs_cmd $ async_flag $ rate_flag 50.0 $ duration_flag 20.0 $ sample
      $ out "trace-out" "Write Chrome trace-event JSON (chrome://tracing, Perfetto) here."
      $ out "flame-out" "Write folded flamegraph stacks (flamegraph.pl, speedscope) here."
      $ out "metrics-out" "Write the metrics-registry snapshot JSON here."
      $ run_flags $ workflow_arg)

let () =
  let doc = "Quilt: resource-aware merging of serverless workflows (SOSP 2025), reproduced in OCaml" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "quilt" ~doc)
          [ list_t; inspect_t; decide_t; merge_t; lint_t; bench_t; adapt_t; chaos_t; place_t; obs_t ]))
