(* Benchmark harness: one section per table/figure of the paper's
   evaluation.  Run everything with `dune exec bench/main.exe`, or a single
   experiment with e.g. `dune exec bench/main.exe -- fig7`.  Pass --smoke
   for a quick pass that writes no BENCH file. *)

let experiments =
  [
    ("fig6", Fig6.run, "workflow latency, baseline vs Quilt (Figure 6)");
    ("fig7", Fig7.run, "latency/throughput vs load, incl. CM and 7c (Figure 7)");
    ("fig8", Fig8.run, "profiling, decision and merging costs (Figure 8)");
    ( "decision",
      Decision_bench.run,
      "decision time: Fig. 8b sweep, exact search, micro (writes BENCH_decision.json)" );
    ("fig9", Fig9.run, "decision quality on random rDAGs (Figure 9)");
    ("fig10", Fig10.run, "conditional invocations under fan-out (Figure 10)");
    ("table_e", Table_e.run, "binary sizes (Appendix E)");
    ("figA", Fig_a.run, "more subgraphs can cost less (Appendix A)");
    ("adaptive", Adaptive.run, "online control plane: drift, re-merge, canary (writes BENCH_adaptive.json)");
    ("fault", Fault.run, "fault injection: availability/goodput under chaos (writes BENCH_fault.json)");
    ("micro", Micro.run, "merge, call-tree and LP micro-benchmarks (writes BENCH_micro.json)");
    ("ir", Ir_bench.run, "QVM steps and time, pass deltas, strict verify (writes BENCH_ir.json)");
    ("engine", Engine_bench.run, "timer-wheel simulator throughput, fingerprint-pinned + merge cache (writes BENCH_engine.json)");
    ("obs", Obs_bench.run, "span-recorder overhead + live-profiler decision fidelity (writes BENCH_obs.json)");
  ]

let usage () =
  print_endline "usage: bench/main.exe [--smoke] [--seed N] [experiment...]";
  print_endline "experiments:";
  List.iter (fun (name, _, descr) -> Printf.printf "  %-8s %s\n" name descr) experiments

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  Common.smoke := List.mem "--smoke" args;
  let args = List.filter (( <> ) "--smoke") args in
  (* --seed N: reproducible-but-different fault/chaos runs. *)
  let rec strip_seed = function
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some s -> Fault.seed_ref := s
        | None ->
            Printf.eprintf "--seed expects an integer, got %S\n" n;
            exit 1);
        strip_seed rest
    | a :: rest -> a :: strip_seed rest
    | [] -> []
  in
  let args = strip_seed args in
  match args with
  | [ "--help" ] | [ "help" ] -> usage ()
  | [] ->
      Printf.printf "Quilt benchmark harness (all experiments%s)\n"
        (if !Common.smoke then ", smoke scale" else "");
      List.iter (fun (_, run, _) -> run ()) experiments
  | names ->
      List.iter
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) experiments with
          | Some (_, run, _) -> run ()
          | None ->
              Printf.printf "unknown experiment %s\n" name;
              usage ();
              exit 1)
        names
