(* Aggregates all suites.  Each test_<area>.ml exposes [suite]. *)

let () =
  Alcotest.run "quilt"
    (List.concat [
       Test_util.suite;
       Test_bitset.suite;
       Test_dag.suite;
       Test_ilp.suite;
       Test_cluster.suite;
       Test_ir.suite;
       Test_analysis.suite;
       Test_differential.suite;
       Test_lang.suite;
       Test_merge.suite;
       Test_platform.suite;
       Test_fuzz.suite;
       Test_vm.suite;
       Test_sched.suite;
       Test_engine.suite;
       Test_apps.suite;
       Test_control.suite;
       Test_loop.suite;
       Test_fault.suite;
       Test_obs.suite;
     ])
