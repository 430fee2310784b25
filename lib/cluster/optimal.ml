module Callgraph = Quilt_dag.Callgraph

(* One incumbent is threaded through every root set's exact search, so the
   best cost found so far prunes all later searches.  A search it prunes to
   [None] is one whose optimum is above that cost, which the
   strict-improvement fold below would have ignored anyway. *)
let solve (g : Callgraph.t) (lim : Types.limits) =
  let n = Callgraph.n_nodes g in
  let non_roots = List.filter (fun v -> v <> g.Callgraph.root) (List.init n (fun i -> i)) in
  let incumbent = ref max_int in
  let best = ref None in
  let cost_zero () = match !best with Some b -> b.Types.cost = 0 | None -> false in
  (try
     for k = 1 to n do
       let subsets = Sweep.combinations non_roots (k - 1) in
       List.iter
         (fun extra ->
           let roots = g.Callgraph.root :: extra in
           if Closure.root_set_feasible g lim ~roots then begin
             match Closure.solve_exact ~incumbent g lim ~roots with
             | None -> ()
             | Some sol -> (
                 match !best with
                 | Some b when sol.Types.cost >= b.Types.cost -> ()
                 | _ -> best := Some sol)
           end;
           (* A zero-cost grouping cannot be improved. *)
           if cost_zero () then raise Exit)
         subsets
     done
   with Exit -> ());
  !best
