(* Tests for quilt_ilp: simplex correctness on known LPs, branch-and-bound on
   known ILPs, and a property test against brute-force enumeration. *)

module Lp = Quilt_ilp.Lp
module Simplex = Quilt_ilp.Simplex
module Bb = Quilt_ilp.Bb
module Rng = Quilt_util.Rng

let solve_lp ~n_vars ~objective ~constraints ~upper =
  Simplex.solve
    (Lp.make_lp ~n_vars ~objective ~constraints ~lower:(Array.make n_vars 0.0) ~upper)

(* maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic Dantzig)
   == minimize -3x - 5y; optimum at (2, 6) with value -36. *)
let test_simplex_dantzig () =
  let constraints =
    [
      { Lp.coeffs = [ (0, 1.0) ]; op = Lp.Le; rhs = 4.0 };
      { Lp.coeffs = [ (1, 2.0) ]; op = Lp.Le; rhs = 12.0 };
      { Lp.coeffs = [ (0, 3.0); (1, 2.0) ]; op = Lp.Le; rhs = 18.0 };
    ]
  in
  match solve_lp ~n_vars:2 ~objective:[| -3.0; -5.0 |] ~constraints ~upper:[| infinity; infinity |] with
  | Simplex.Optimal (v, x) ->
      Alcotest.(check (float 1e-6)) "objective" (-36.0) v;
      Alcotest.(check (float 1e-6)) "x" 2.0 x.(0);
      Alcotest.(check (float 1e-6)) "y" 6.0 x.(1)
  | Simplex.Infeasible -> Alcotest.fail "infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unbounded"

let test_simplex_equality_constraint () =
  (* minimize x + y s.t. x + y = 5, x - y >= 1: optimum (3,2) value 5. *)
  let constraints =
    [
      { Lp.coeffs = [ (0, 1.0); (1, 1.0) ]; op = Lp.Eq; rhs = 5.0 };
      { Lp.coeffs = [ (0, 1.0); (1, -1.0) ]; op = Lp.Ge; rhs = 1.0 };
    ]
  in
  match solve_lp ~n_vars:2 ~objective:[| 1.0; 1.0 |] ~constraints ~upper:[| infinity; infinity |] with
  | Simplex.Optimal (v, x) ->
      Alcotest.(check (float 1e-6)) "objective" 5.0 v;
      Alcotest.(check (float 1e-6)) "sum" 5.0 (x.(0) +. x.(1));
      Alcotest.(check bool) "x - y >= 1" true (x.(0) -. x.(1) >= 1.0 -. 1e-6)
  | Simplex.Infeasible -> Alcotest.fail "infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unbounded"

let test_simplex_infeasible () =
  let constraints =
    [
      { Lp.coeffs = [ (0, 1.0) ]; op = Lp.Ge; rhs = 5.0 };
      { Lp.coeffs = [ (0, 1.0) ]; op = Lp.Le; rhs = 3.0 };
    ]
  in
  match solve_lp ~n_vars:1 ~objective:[| 1.0 |] ~constraints ~upper:[| infinity |] with
  | Simplex.Infeasible -> ()
  | Simplex.Optimal _ -> Alcotest.fail "expected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "expected infeasible, got unbounded"

let test_simplex_unbounded () =
  (* minimize -x with no upper bound. *)
  match solve_lp ~n_vars:1 ~objective:[| -1.0 |] ~constraints:[] ~upper:[| infinity |] with
  | Simplex.Unbounded -> ()
  | Simplex.Optimal _ -> Alcotest.fail "expected unbounded"
  | Simplex.Infeasible -> Alcotest.fail "expected unbounded, got infeasible"

let test_simplex_respects_upper_bounds () =
  match solve_lp ~n_vars:2 ~objective:[| -1.0; -1.0 |] ~constraints:[] ~upper:[| 1.0; 2.5 |] with
  | Simplex.Optimal (v, x) ->
      Alcotest.(check (float 1e-6)) "objective" (-3.5) v;
      Alcotest.(check (float 1e-6)) "x0 at ub" 1.0 x.(0);
      Alcotest.(check (float 1e-6)) "x1 at ub" 2.5 x.(1)
  | Simplex.Infeasible -> Alcotest.fail "infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unbounded"

let test_simplex_lower_bounds () =
  (* minimize x with lower bound 2. *)
  let p =
    Lp.make_lp ~n_vars:1 ~objective:[| 1.0 |] ~constraints:[] ~lower:[| 2.0 |] ~upper:[| 10.0 |]
  in
  match Simplex.solve p with
  | Simplex.Optimal (v, x) ->
      Alcotest.(check (float 1e-6)) "objective" 2.0 v;
      Alcotest.(check (float 1e-6)) "x" 2.0 x.(0)
  | Simplex.Infeasible -> Alcotest.fail "infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unbounded"

(* --- Branch and bound --- *)

(* 0/1 knapsack as ILP: maximize v·x s.t. w·x <= W ==> minimize -v·x. *)
let knapsack values weights capacity =
  let n = Array.length values in
  let objective = Array.map (fun v -> -.float_of_int v) values in
  let coeffs = Array.to_list (Array.mapi (fun i w -> (i, float_of_int w)) weights) in
  let constraints = [ { Lp.coeffs; op = Lp.Le; rhs = float_of_int capacity } ] in
  Lp.make ~n_vars:n ~objective ~constraints ()

let brute_force_knapsack values weights capacity =
  let n = Array.length values in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let v = ref 0 and w = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        v := !v + values.(i);
        w := !w + weights.(i)
      end
    done;
    if !w <= capacity && !v > !best then best := !v
  done;
  !best

let test_bb_knapsack () =
  let values = [| 60; 100; 120 |] and weights = [| 10; 20; 30 |] in
  let out = Bb.solve (knapsack values weights 50) in
  Alcotest.(check bool) "optimal" true (out.Bb.status = `Optimal);
  Alcotest.(check (float 1e-6)) "value 220" (-220.0) out.Bb.objective

let test_bb_infeasible () =
  let constraints =
    [
      { Lp.coeffs = [ (0, 1.0); (1, 1.0) ]; op = Lp.Ge; rhs = 3.0 };
    ]
  in
  let p = Lp.make ~n_vars:2 ~objective:[| 1.0; 1.0 |] ~constraints () in
  let out = Bb.solve p in
  Alcotest.(check bool) "infeasible" true (out.Bb.status = `Infeasible)

let test_bb_integrality_forced () =
  (* LP relaxation optimum is fractional: minimize -x1 - x2 with
     2x1 + 2x2 <= 3 gives x = (1.5, 0) or similar; ILP optimum is 1 item. *)
  let constraints = [ { Lp.coeffs = [ (0, 2.0); (1, 2.0) ]; op = Lp.Le; rhs = 3.0 } ] in
  let p = Lp.make ~n_vars:2 ~objective:[| -1.0; -1.0 |] ~constraints () in
  let out = Bb.solve p in
  Alcotest.(check bool) "optimal" true (out.Bb.status = `Optimal);
  Alcotest.(check (float 1e-6)) "one item" (-1.0) out.Bb.objective;
  Array.iter
    (fun v -> Alcotest.(check bool) "integral" true (Float.abs (v -. Float.round v) < 1e-6))
    out.Bb.solution

let test_bb_node_limit () =
  (* A hard-ish knapsack proves optimality well inside the fixed node
     budget, at the brute-force optimum. *)
  let rng = Rng.create 17 in
  let n = 14 in
  let values = Array.init n (fun _ -> Rng.int_in rng 10 60) in
  let weights = Array.init n (fun _ -> Rng.int_in rng 5 25) in
  let out = Bb.solve (knapsack values weights 80) in
  Alcotest.(check bool) "optimal" true (out.Bb.status = `Optimal);
  Alcotest.(check bool) "inside the node limit" true (out.Bb.nodes_explored < 200_000);
  Alcotest.(check (float 1e-6)) "brute-force optimum"
    (-.float_of_int (brute_force_knapsack values weights 80))
    out.Bb.objective

let test_lp_check_feasible () =
  let p =
    Lp.make ~n_vars:2 ~objective:[| 1.0; 1.0 |]
      ~constraints:[ { Lp.coeffs = [ (0, 1.0); (1, 1.0) ]; op = Lp.Le; rhs = 1.0 } ]
      ()
  in
  Alcotest.(check bool) "feasible point" true (Lp.check_feasible p [| 1.0; 0.0 |] ~eps:1e-9);
  Alcotest.(check bool) "violates constraint" false (Lp.check_feasible p [| 1.0; 1.0 |] ~eps:1e-9);
  Alcotest.(check bool) "violates bounds" false (Lp.check_feasible p [| 2.0; -1.0 |] ~eps:1e-9)

let test_lp_make_rejects_bad_dimensions () =
  match Lp.make ~n_vars:2 ~objective:[| 1.0 |] ~constraints:[] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected dimension check"

let prop_bb_matches_bruteforce =
  let open QCheck in
  Test.make ~name:"B&B knapsack equals brute force" ~count:60
    (pair (int_range 1 9) (int_range 1 100))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let values = Array.init n (fun _ -> Rng.int_in rng 1 50) in
      let weights = Array.init n (fun _ -> Rng.int_in rng 1 20) in
      let capacity = Rng.int_in rng 5 60 in
      let out = Bb.solve (knapsack values weights capacity) in
      let expected = brute_force_knapsack values weights capacity in
      out.Bb.status = `Optimal && Float.abs (out.Bb.objective +. float_of_int expected) < 1e-6)

let prop_bb_solution_feasible =
  let open QCheck in
  Test.make ~name:"B&B solutions satisfy all constraints" ~count:60
    (int_range 1 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 2 8 in
      let objective = Array.init n (fun _ -> float_of_int (Rng.int_in rng (-10) 10)) in
      let constraints =
        List.init (Rng.int_in rng 1 5) (fun _ ->
            let coeffs = List.init n (fun i -> (i, float_of_int (Rng.int_in rng 0 5))) in
            { Lp.coeffs; op = Lp.Le; rhs = float_of_int (Rng.int_in rng 1 15) })
      in
      let p = Lp.make ~n_vars:n ~objective ~constraints () in
      let out = Bb.solve p in
      match out.Bb.status with
      | `Optimal | `Feasible -> Lp.check_feasible p out.Bb.solution ~eps:1e-6
      | `Infeasible | `NodeLimit -> true)

let suite =
  [
    ( "ilp.simplex",
      [
        Alcotest.test_case "dantzig example" `Quick test_simplex_dantzig;
        Alcotest.test_case "equality constraints" `Quick test_simplex_equality_constraint;
        Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
        Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
        Alcotest.test_case "upper bounds" `Quick test_simplex_respects_upper_bounds;
        Alcotest.test_case "lower bounds" `Quick test_simplex_lower_bounds;
      ] );
    ( "ilp.bb",
      [
        Alcotest.test_case "knapsack" `Quick test_bb_knapsack;
        Alcotest.test_case "infeasible" `Quick test_bb_infeasible;
        Alcotest.test_case "integrality" `Quick test_bb_integrality_forced;
        Alcotest.test_case "node limit" `Quick test_bb_node_limit;
        Alcotest.test_case "check_feasible" `Quick test_lp_check_feasible;
        Alcotest.test_case "dimension checks" `Quick test_lp_make_rejects_bad_dimensions;
        QCheck_alcotest.to_alcotest prop_bb_matches_bruteforce;
        QCheck_alcotest.to_alcotest prop_bb_solution_feasible;
      ] );
  ]
