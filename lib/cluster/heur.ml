module Callgraph = Quilt_dag.Callgraph

let weighted_in_degree_scores (g : Callgraph.t) =
  Array.init (Callgraph.n_nodes g) (fun j -> Callgraph.weighted_in_degree g j)

(* The paper's simple baseline looks only at a local property: for each k
   it takes the k−1 vertices of highest weighted in-degree as THE candidate
   root set — no combinatorial exploration, no downstream-resource
   awareness.  This is what Experiment 5 compares DIH against, and why it
   "produces poor approximations" (Appendix C): a high in-degree says
   nothing about the resource pressure behind a vertex. *)
let solve_weighted_degree ?pool_size ?k_max ?(fallback = true) (g : Callgraph.t)
    (lim : Types.limits) =
  let s = weighted_in_degree_scores g in
  let n = Callgraph.n_nodes g in
  (* Root sets beyond ~12 defeat the point of a ranking heuristic (and the
     exact Phase-2 search); the default mirrors the practical ILP-size cap
     the paper worked under. *)
  let k_max =
    match k_max, pool_size with
    | Some k, _ -> k
    | None, Some p -> p + 1
    | None, None -> min n 12
  in
  let candidates = List.filter (fun j -> j <> g.Callgraph.root) (List.init n (fun i -> i)) in
  let ranked = List.sort (fun a b -> compare s.(b) s.(a)) candidates in
  let best = ref None in
  for k = 1 to min k_max n do
    let roots = g.Callgraph.root :: List.filteri (fun i _ -> i < k - 1) ranked in
    if Closure.root_set_feasible g lim ~roots then
      match Closure.solve g lim ~roots with
      | Some sol -> (
          match !best with
          | Some (b : Types.solution) when sol.Types.cost >= b.Types.cost -> ()
          | _ -> best := Some sol)
      | None -> ()
  done;
  match !best with
  | Some sol -> Some sol
  | None when not fallback -> None
  | None ->
      let all = List.init n (fun i -> i) in
      if Closure.root_set_feasible g lim ~roots:all then Closure.solve_greedy g lim ~roots:all
      else None
