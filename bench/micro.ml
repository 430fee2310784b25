(* Micro-benchmarks of the hot algorithmic paths outside the decision
   phase: an uncached merge-pipeline compile (the per-group cost behind
   Figure 8c), call-tree construction, and the LP solver.  Writes
   BENCH_micro.json; the decision-algorithm micro rows are in the decision
   bench (`bench/main.exe decision`). *)

module Pipeline = Quilt_merge.Pipeline
module Calltree = Quilt_platform.Calltree
module Deathstar = Quilt_apps.Deathstar
module Workflow = Quilt_apps.Workflow
module Lp = Quilt_ilp.Lp
module Simplex = Quilt_ilp.Simplex
module Rng = Quilt_util.Rng
module Json = Quilt_util.Json

let compose_post () =
  List.find (fun w -> w.Workflow.wf_name = "compose-post") (Deathstar.social_network ~async:false ())

let lp_instance () =
  (* A 20-variable knapsack relaxation. *)
  let rng = Rng.create 99 in
  let n = 20 in
  let objective = Array.init n (fun _ -> -.float_of_int (Rng.int_in rng 1 50)) in
  let coeffs = List.init n (fun i -> (i, float_of_int (Rng.int_in rng 1 20))) in
  Lp.make_lp ~n_vars:n ~objective
    ~constraints:[ { Lp.coeffs; op = Lp.Le; rhs = 100.0 } ]
    ~lower:(Array.make n 0.0) ~upper:(Array.make n 1.0)

let run () =
  Common.section "Micro-benchmarks: core algorithm costs";
  let compose = compose_post () in
  let report, wall =
    Common.measure ~batch:20 (fun () ->
        Pipeline.merge_group_uncached
          ~lookup:(fun svc -> Workflow.lookup compose svc)
          ~members:(Workflow.fn_names compose) ~root:"compose-post" ())
  in
  let merge_row =
    Common.row "merge compose-post uncached" wall
      [
        ("functions", Json.Int (List.length (Workflow.fn_names compose)));
        ("instrs", Json.Int (Quilt_ir.Ir.instr_count report.Pipeline.merged_module));
      ]
  in
  let reg = Workflow.registry [ compose ] in
  let tree, wall =
    Common.measure ~batch:5000 (fun () ->
        Calltree.build reg ~entry:"compose-post" ~req:"{\"data\":\"m1\"}")
  in
  let calltree_row =
    Common.row "calltree compose-post" wall [ ("cpu_us", Json.Float (Calltree.total_cpu_us tree)) ]
  in
  let lp = lp_instance () in
  let objective, wall =
    Common.measure ~batch:5000 (fun () ->
        match Simplex.solve lp with Simplex.Optimal (obj, _) -> Json.Float obj | _ -> Json.Null)
  in
  let simplex_row = Common.row "simplex 20-var LP" wall [ ("objective", objective) ] in
  Common.paper_note [ "not in the paper: per-operation costs of this reproduction's own algorithms." ];
  Common.write_section "micro" [ merge_row; calltree_row; simplex_row ]
