module Callgraph = Quilt_dag.Callgraph
module Rng = Quilt_util.Rng

type algorithm = Optimal | Dih | Weighted_degree | Grasp

let algorithm_name = function
  | Optimal -> "optimal"
  | Dih -> "downstream-impact"
  | Weighted_degree -> "weighted-degree"
  | Grasp -> "grasp"

let solve ?(seed = 1) algorithm (g : Callgraph.t) (lim : Types.limits) =
  let sol =
    match algorithm with
    | Optimal -> Optimal.solve g lim
    | Dih -> Dih.solve g lim
    | Weighted_degree -> Heur.solve_weighted_degree g lim
    | Grasp -> Grasp.solve (Rng.create seed) g lim
  in
  Option.map
    (fun s ->
      match Metrics.solution_valid g lim s with
      | Ok () -> s
      | Error msg -> failwith (Printf.sprintf "Decision.solve: invalid solution produced: %s" msg))
    sol

let auto_algorithm (g : Callgraph.t) =
  let n = Callgraph.n_nodes g in
  if n <= 12 then Optimal else if n <= 60 then Dih else Grasp

let auto ?(seed = 1) ?domains:_ (g : Callgraph.t) (lim : Types.limits) =
  solve ~seed (auto_algorithm g) g lim
