(* Fault benchmark: deterministic chaos over the three deployment arms.
   Every scenario of Quilt_fault.Scenario runs against baseline /
   container-merge / quilt under the default retry policy, plus a pinned
   policy comparison (none vs retry on the crash storm) showing retries
   buying availability at a bounded replayed-work cost, and the
   reliability-penalty sweep showing λ shrinking the chosen fault domains.
   Writes everything to BENCH_fault.json.  `bench/main.exe fault --smoke`
   (or --fast) shrinks each run to ~12 virtual seconds. *)

open Common
module Fs = Quilt_fault.Scenario
module Policy = Quilt_fault.Policy
module Special = Quilt_apps.Special
module Metrics = Quilt_cluster.Metrics
module Types = Quilt_cluster.Types

let json_file = "BENCH_fault.json"
let smoke_flag = ref false
let seed_ref = ref 0

let run_matrix_or_fail ~smoke ~seed ?scenario_filter ~policy ~policy_name () =
  match Fs.run_matrix ~smoke ~seed ?scenario_filter ~policy ~policy_name () with
  | Ok os -> os
  | Error e -> failwith (Printf.sprintf "fault matrix (%s): %s" policy_name e)

(* The quilt grouping's blast radius, with and without the reliability
   penalty: λ large enough makes the optimizer prefer smaller fault
   domains (ultimately the unmerged baseline) over cut-cost savings. *)
let penalty_sweep ~smoke ~seed =
  let wf = Special.routed () in
  let wf = { wf with Quilt_apps.Workflow.gen_req = Special.routed_req ~b_share:0.3 } in
  let base_cfg =
    {
      Config.default with
      Config.cpu_budget_ms = 6.5;
      profile_duration_us = (if smoke then 8_000_000.0 else 20_000_000.0);
      seed = 1 + seed;
    }
  in
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
  let matrix =
    run_matrix_or_fail ~smoke ~seed ~policy:Policy.default_retry ~policy_name:"retry" ()
  in
  List.iter Fs.print_outcome matrix;
  subsection "pinned: crashstorm with vs without retries";
  let no_retry =
    run_matrix_or_fail ~smoke ~seed ~scenario_filter:(Some "crashstorm") ~policy:Policy.none
      ~policy_name:"none" ()
  in
  List.iter Fs.print_outcome no_retry;
  let avail arm outcomes =
    match List.find_opt (fun (o : Fs.outcome) -> o.Fs.f_arm = arm) outcomes with
    | Some o -> Quilt_platform.Loadgen.availability o.Fs.f_result
    | None -> nan
  in
  let crash_retry = List.filter (fun (o : Fs.outcome) -> o.Fs.f_scenario = "crashstorm") matrix in
  Printf.printf "  quilt crashstorm availability: %.1f%% no-retry -> %.1f%% with retries\n"
    (100.0 *. avail "quilt" no_retry)
    (100.0 *. avail "quilt" crash_retry);
  subsection "reliability penalty sweep (lambda)";
  let sweep = penalty_sweep ~smoke ~seed in
  let json =
    Json.Obj
      [
        ("smoke", Json.Bool smoke);
        ("seed", Json.int seed);
        ("matrix", Json.List (List.map Fs.outcome_json matrix));
        ("crashstorm_no_retry", Json.List (List.map Fs.outcome_json no_retry));
        ( "penalty_sweep",
          Json.List (List.map snd sweep) );
      ]
  in
  let oc = open_out_bin json_file in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [outcomes recorded in %s]\n%!" json_file
