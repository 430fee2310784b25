(* Figure 6: median and 99th-percentile workflow completion latency for all
   DeathStarBench workflows, baseline vs Quilt, synchronous and (where the
   application can exploit it) asynchronous invocations.  1 connection,
   closed loop, warm system, 2 vCPU / 128 MB containers, max-scale 10. *)

open Common
module Deathstar = Quilt_apps.Deathstar
module Loadgen = Quilt_platform.Loadgen

let cfg = Config.default

let duration_for wf =
  (* HR functions run for seconds; give them a longer window for a stable
     median. *)
  let hr = [ "search-handler"; "reservation-handler"; "nearby-cinema" ] in
  if List.mem wf.Workflow.wf_name hr then scale 400_000_000.0 else scale 80_000_000.0

let run_workflow ~mode wf =
  let duration_us = duration_for wf in
  let t = optimize_or_fail cfg wf in
  let baseline_engine = Quilt.fresh_platform ~workflows:[ wf ] () in
  let b =
    latency_run baseline_engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req ~duration_us
  in
  let quilt_engine = Quilt.fresh_platform ~workflows:[ wf ] () in
  Quilt.apply quilt_engine t;
  let q = latency_run quilt_engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req ~duration_us in
  let bm = Loadgen.median_ms b and qm = Loadgen.median_ms q in
  let bp = Loadgen.p99_ms b and qp = Loadgen.p99_ms q in
  Printf.printf "  %-22s %-5s %9.2f %9.2f %9.2f %9.2f   %5.1f%%  %5.1f%%\n" wf.Workflow.wf_name mode bm
    bp qm qp (pct_improvement ~baseline:bm ~better:qm)
    (pct_improvement ~baseline:bp ~better:qp);
  (wf.Workflow.wf_name, pct_improvement ~baseline:bm ~better:qm)

let run () =
  section "Figure 6: workflow completion latency, baseline vs Quilt (1 connection, low load)";
  Printf.printf "  %-22s %-5s %9s %9s %9s %9s   %6s  %6s\n" "workflow" "mode" "base-med" "base-p99"
    "quilt-med" "quilt-p99" "d-med" "d-p99";
  Printf.printf "  %s\n" (String.make 88 '-');
  let sync_wfs = Deathstar.all ~async:false () in
  let sync_improvements = List.map (run_workflow ~mode:"sync") sync_wfs in
  (* Async variants: SN and MR only; "the HR application cannot profitably
     use asynchronous invocations" (§7.3.1). *)
  let async_wfs = Deathstar.social_network ~async:true () @ Deathstar.media ~async:true () in
  let async_improvements = List.map (run_workflow ~mode:"async") async_wfs in
  let hr = [ "search-handler"; "reservation-handler"; "nearby-cinema" ] in
  let fastpath =
    List.filter (fun (n, _) -> not (List.mem n hr)) (sync_improvements @ async_improvements)
  in
  let imps = List.map snd fastpath in
  Printf.printf "\n  SN/MR median-latency improvement range: %.1f%% .. %.1f%%\n"
    (Quilt_util.Stats.minimum imps) (Quilt_util.Stats.maximum imps);
  let slow = List.filter (fun (n, _) -> List.mem n hr) sync_improvements in
  Printf.printf "  HR (multi-second functions) improvement range: %.1f%% .. %.1f%%\n"
    (Quilt_util.Stats.minimum (List.map snd slow))
    (Quilt_util.Stats.maximum (List.map snd slow));
  paper_note
    [
      "median latency improves 45.63%-70.95% and tail 15.64%-85.47% across 9 of 11 workflows;";
      "the two HR workflows that take multiple seconds see little improvement.";
    ]
