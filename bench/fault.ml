(* Fault benchmark: deterministic chaos over the three deployment arms.
   Every chaos cell of Quilt_control.Scenario runs against baseline /
   container-merge / quilt under the default retry policy, plus a pinned
   policy comparison (none vs retry on the crash storm) showing retries
   buying availability at a bounded replayed-work cost, and the
   reliability-penalty sweep showing λ shrinking the chosen fault domains.
   Writes everything to BENCH_fault.json.  `bench/main.exe fault --smoke`
   (or --fast) shrinks each run to ~12 virtual seconds. *)

open Common
module Scenario = Quilt_control.Scenario
module Metrics = Quilt_cluster.Metrics
module Types = Quilt_cluster.Types

let json_file = "BENCH_fault.json"
let smoke_flag = ref false
let seed_ref = ref 0

let run_matrix_or_fail ~smoke ~seed ~policy names =
  match Scenario.run_matrix ~smoke ~seed ~policy names with
  | Ok os -> os
  | Error e -> failwith (Printf.sprintf "fault matrix (%s): %s" policy e)

(* The quilt grouping's blast radius, with and without the reliability
   penalty: λ large enough makes the optimizer prefer smaller fault
   domains (ultimately the unmerged baseline) over cut-cost savings. *)
let penalty_sweep ~smoke ~seed =
  let sp =
    match Scenario.spec ~smoke ~seed "crashstorm" with
    | Ok sp -> sp
    | Error e -> failwith e
  in
  let wf = { sp.Scenario.sp_workflow with Workflow.gen_req = sp.Scenario.sp_profile_gen } in
  let base_cfg = sp.Scenario.sp_offline_cfg in
  let graph =
    match Quilt.profile base_cfg ~workflows:[ wf ] wf with
    | Ok g -> g
    | Error e -> failwith (Printf.sprintf "penalty sweep profiling: %s" e)
  in
  List.map
    (fun lambda ->
      let cfg = { base_cfg with Config.reliability_lambda = lambda } in
      let t =
        match Quilt.optimize ~graph cfg ~workflows:[ wf ] wf with
        | Ok t -> t
        | Error e -> failwith (Printf.sprintf "penalty sweep λ=%.1f: %s" lambda e)
      in
      let sol = t.Quilt.solution in
      let domains = Metrics.fault_domain_sizes sol in
      let replay = Metrics.expected_replay_work graph sol in
      Printf.printf "  lambda %8.1f: cost %4d, fault domains [%s], E[replay] %.2f vCPU.ms\n"
        lambda sol.Types.cost
        (String.concat ";" (List.map string_of_int domains))
        replay;
      ( lambda,
        Json.Obj
          [
            ("lambda", Json.Float lambda);
            ("cost", Json.int sol.Types.cost);
            ("fault_domains", Json.List (List.map Json.int domains));
            ("expected_replay_work", Json.Float replay);
          ] ))
    [ 0.0; 1.0; 1000.0 ]

let run () =
  section "Fault injection: availability under chaos (quilt vs the baselines)";
  paper_note
    [
      "merging buys latency but enlarges the failure domain: one container";
      "crash destroys (and an at-least-once retry replays) every member's";
      "in-flight work.  Deterministic fault plans make that measurable.";
    ];
  let smoke = !fast || !smoke_flag in
  let seed = !seed_ref in
  subsection "scenario x arm matrix (retry policy)";
  let matrix = run_matrix_or_fail ~smoke ~seed ~policy:"retry" Scenario.chaos_names in
  List.iter Scenario.print_outcome matrix;
  subsection "pinned: crashstorm with vs without retries";
  let no_retry = run_matrix_or_fail ~smoke ~seed ~policy:"none" [ "crashstorm" ] in
  List.iter Scenario.print_outcome no_retry;
  let avail outcomes =
    match
      List.find_opt
        (fun (o : Scenario.outcome) ->
          o.Scenario.o_scenario = "crashstorm" && o.Scenario.o_arm = Scenario.Quilt_merged)
        outcomes
    with
    | Some o -> Loadgen.availability o.Scenario.o_phased.Loadgen.overall
    | None -> nan
  in
  Printf.printf "  quilt crashstorm availability: %.1f%% no-retry -> %.1f%% with retries\n"
    (100.0 *. avail no_retry) (100.0 *. avail matrix);
  subsection "reliability penalty sweep (lambda)";
  let sweep = penalty_sweep ~smoke ~seed in
  let json =
    Json.Obj
      [
        ("smoke", Json.Bool smoke);
        ("seed", Json.int seed);
        ("matrix", Json.List (List.map Scenario.outcome_json matrix));
        ("crashstorm_no_retry", Json.List (List.map Scenario.outcome_json no_retry));
        ( "penalty_sweep",
          Json.List (List.map snd sweep) );
      ]
  in
  let oc = open_out_bin json_file in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [outcomes recorded in %s]\n%!" json_file
