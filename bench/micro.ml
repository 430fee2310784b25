(* Bechamel micro-benchmarks of the hot algorithmic paths: the merge
   pipeline, call-tree construction, and the LP solver.  These give
   statistically robust per-operation timings (the run-to-run figures
   behind Figure 8c), complementing the wall-clock sweeps in the other
   sections.  The decision-algorithm micros moved to the decision bench
   (`bench/main.exe decision`), next to the parallel-decision rows they
   calibrate. *)

open Bechamel
module Pipeline = Quilt_merge.Pipeline
module Calltree = Quilt_platform.Calltree
module Deathstar = Quilt_apps.Deathstar
module Workflow = Quilt_apps.Workflow
module Lp = Quilt_ilp.Lp
module Simplex = Quilt_ilp.Simplex
module Rng = Quilt_util.Rng

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
  Common.section "Micro-benchmarks (bechamel): core algorithm costs";
  let compose = compose_post () in
  let reg = Workflow.registry [ compose ] in
  let lp = lp_instance () in
  Common.bechamel ~key:"micro_us_per_run"
    ~uncached:
      [
        Test.make ~name:"merge pipeline: compose-post (11 fn)"
          (Staged.stage (fun () ->
               Pipeline.merge_group
                 ~lookup:(fun svc -> Workflow.lookup compose svc)
                 ~members:(Workflow.fn_names compose) ~root:"compose-post" ()));
      ]
    [
      Test.make ~name:"calltree: compose-post request"
        (Staged.stage (fun () -> Calltree.build reg ~entry:"compose-post" ~req:"{\"data\":\"m1\"}"));
      Test.make ~name:"simplex: 20-var LP" (Staged.stage (fun () -> Simplex.solve lp));
    ];
  Common.paper_note [ "not in the paper: per-operation costs of this reproduction's own algorithms." ]
