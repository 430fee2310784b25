(* GRASP (Appendix C.4): randomized construction over the DIH ranking plus
   greedy root pruning.  All heavy lifting — scores, feasibility probes,
   Phase-2 solves — runs on the bitset/adjacency kernels underneath
   [Dih.scores] and [Closure.solve]; the RNG draw sequence is kept exactly
   stable so seeded runs reproduce bit-identical solutions. *)

module Callgraph = Quilt_dag.Callgraph
module Rng = Quilt_util.Rng

let draw_pool rng ~rcl ~count =
  let rcl = Array.of_list rcl in
  Rng.shuffle rng rcl;
  Array.to_list (Array.sub rcl 0 (min count (Array.length rcl)))

let solve rng (g : Callgraph.t) (lim : Types.limits) =
  let n = Callgraph.n_nodes g in
  let s = Dih.scores g lim in
  let candidates = List.filter (fun j -> j <> g.Callgraph.root) (List.init n (fun i -> i)) in
  let ranked = List.sort (fun a b -> compare s.(b) s.(a)) candidates in
  (* Stage 1: adaptive randomized search for an initial feasible root set. *)
  let rec stage1 ell =
    if ell >= n then begin
      (* Every vertex a root: the finest grouping there is. *)
      let all = List.init n (fun i -> i) in
      if Closure.root_set_feasible g lim ~roots:all then
        Closure.solve_greedy g lim ~roots:all |> Option.map (fun sol -> (all, sol))
      else None
    end
    else begin
      let rcl = List.filteri (fun i _ -> i < 2 * ell) ranked in
      let pool = draw_pool rng ~rcl ~count:ell in
      let roots = g.Callgraph.root :: pool in
      if Closure.root_set_feasible g lim ~roots then begin
        match Closure.solve g lim ~roots with
        | Some sol -> Some (roots, sol)
        | None -> stage1 (ell + 1)
      end
      else stage1 (ell + 1)
    end
  in
  match stage1 3 with
  | None -> None
  | Some (roots0, sol0) ->
      (* Stage 2: greedy refinement by pruning low-DIH roots. *)
      let best_roots = ref roots0 and best = ref sol0 in
      let improved = ref true in
      while !improved do
        improved := false;
        let removable =
          List.filter (fun r -> r <> g.Callgraph.root) !best_roots
          |> List.sort (fun a b -> compare s.(a) s.(b))
        in
        try
          List.iter
            (fun r_remove ->
              let roots' = List.filter (fun r -> r <> r_remove) !best_roots in
              if Closure.root_set_feasible g lim ~roots:roots' then begin
                match Closure.solve g lim ~roots:roots' with
                | Some sol when sol.Types.cost < !best.Types.cost ->
                    best := sol;
                    best_roots := roots';
                    improved := true;
                    raise Exit
                | Some _ | None -> ()
              end)
            removable
        with Exit -> ()
      done;
      Some !best
