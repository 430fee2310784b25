(* Bechamel micro-benchmarks of the hot algorithmic paths: the merge
   pipeline, call-tree construction, and the LP solver.  These give
   statistically robust per-operation timings (the run-to-run figures
   behind Figure 8c), complementing the wall-clock sweeps in the other
   sections.  The decision-algorithm micros moved to the decision bench
   (`bench/main.exe decision`), next to the parallel-decision rows they
   calibrate. *)

open Bechamel
open Toolkit
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

(* [(uncached, test)]: an uncached row runs with the merge cache disabled,
   so it times compiles rather than content-addressed cache hits. *)
let tests =
  let compose = compose_post () in
  let reg = Workflow.registry [ compose ] in
  let lp = lp_instance () in
  [
    ( true,
      Test.make ~name:"merge pipeline: compose-post (11 fn)"
        (Staged.stage (fun () ->
             Pipeline.merge_group
               ~lookup:(fun svc -> Workflow.lookup compose svc)
               ~members:(Workflow.fn_names compose) ~root:"compose-post" ())) );
    ( false,
      Test.make ~name:"calltree: compose-post request"
        (Staged.stage (fun () -> Calltree.build reg ~entry:"compose-post" ~req:"{\"data\":\"m1\"}"))
    );
    (false, Test.make ~name:"simplex: 20-var LP" (Staged.stage (fun () -> Simplex.solve lp)));
  ]

let run () =
  Common.section "Micro-benchmarks (bechamel): core algorithm costs";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second (if !Common.fast then 0.25 else 1.0)) () in
  let recorded = ref [] in
  List.iter
    (fun (uncached, test) ->
      let results =
        let measure () =
          Benchmark.all cfg instances (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ])
        in
        if uncached then begin
          Pipeline.set_cache_enabled false;
          Fun.protect ~finally:(fun () -> Pipeline.set_cache_enabled true) measure
        end
        else measure ()
      in
      let results = Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Printf.printf "  %-42s %12.2f us/run\n%!" name (est /. 1000.0);
              recorded := (name, est /. 1000.0) :: !recorded
          | Some _ | None -> Printf.printf "  %-42s (no estimate)\n%!" name)
        results)
    tests;
  Common.record_timings ~key:"micro_us_per_run"
    (List.rev_map (fun (name, us) -> (name, Common.Json.Float us)) !recorded);
  Common.paper_note [ "not in the paper: per-operation costs of this reproduction's own algorithms." ]
