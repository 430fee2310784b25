(* The unmerged baseline's capacity for each of sim-load's workflows, which
   sim-load's heavy rates are set from, and a check that a heavy case's
   measured window is steady.

     dune exec perfbench/knee.exe -- [SEED ...]

   For each seed (default 1 2 3) and workflow, the Plain arm runs sim-load's
   case ([Corpus.sim_case]: closed-loop prewarm, 4 virtual seconds of
   open-loop warm-up, 4 measured seconds) at rates rising by a factor of
   sqrt 2 from the light rate.  The sweep stops once completions fall below
   half the offered rate or the median latency passes ten times its
   lowest.  The capacity is the highest completion rate seen; the knee is
   the highest offered rate whose median latency stays within 1.25 times
   the lowest.  Then every arm runs at the configured heavy rate over the
   measured window and over one four times longer: a steady case gives the
   same completion rate and close latency percentiles over both. *)

module Loadgen = Quilt_platform.Loadgen
module Workflow = Quilt_apps.Workflow
module Quilt = Quilt_core.Quilt
module Deploy = Quilt_core.Deploy

let row label rate (r : Loadgen.result) wall =
  Printf.printf "    %-20s %8.1f rps  done %8.1f rps  p50 %9.2f ms  p99 %9.2f ms  failed %5d  wall %.2fs\n%!" label
    rate r.Loadgen.throughput_rps (Loadgen.median_ms r) (Loadgen.p99_ms r) r.Loadgen.failures wall

let () =
  let seeds = match List.tl (Array.to_list Sys.argv) with [] -> [ 1; 2; 3 ] | a -> List.map int_of_string a in
  List.iter
    (fun seed ->
      let cfg = Corpus.config ~seed ~domains:1 in
      Printf.printf "seed %d\n" seed;
      List.iter
        (fun ((wf : Workflow.t), light, heavy, warmup_s, measure_s) ->
          Printf.printf "  %s (light %g, heavy %g rps)\n" wf.Workflow.wf_name light heavy;
          let case ~rate ~measure_s deploy =
            let (_, r), wall =
              Span.timed (fun () -> Corpus.sim_case cfg wf ~rate ~warmup_s ~measure_s ~seed deploy)
            in
            (r, wall)
          in
          let capacity = ref 0.0 and knee = ref 0.0 and base_p50 = ref infinity in
          let rec sweep rate =
            let r, wall = case ~rate ~measure_s ignore in
            row "plain" rate r wall;
            let done_rps = r.Loadgen.throughput_rps and p50 = Loadgen.median_ms r in
            capacity := Float.max !capacity done_rps;
            base_p50 := Float.min !base_p50 p50;
            if p50 <= 1.25 *. !base_p50 then knee := rate;
            if done_rps >= 0.5 *. rate && p50 <= 10.0 *. !base_p50 then sweep (rate *. sqrt 2.0)
          in
          sweep light;
          Printf.printf "    capacity %.1f rps, knee %.1f rps; heavy = %.2f of capacity\n" !capacity !knee
            (heavy /. !capacity);
          match Quilt.optimize cfg ~workflows:[ wf ] wf with
          | Error e -> Printf.printf "    optimize failed: %s\n" e
          | Ok plan ->
              List.iter
                (fun (arm, deploy) ->
                  List.iter
                    (fun m ->
                      let r, wall = case ~rate:heavy ~measure_s:m deploy in
                      row (Printf.sprintf "%s %gs" arm m) heavy r wall)
                    [ measure_s; 4.0 *. measure_s ])
                [
                  ("plain", ignore);
                  ("container-merge", fun e -> Deploy.deploy_cm e cfg wf);
                  ("quilt", fun e -> Quilt.apply e plan);
                ])
        (Corpus.sim_load ()))
    seeds
