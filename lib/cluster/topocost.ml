(* Topology-priced cut edges.  See the interface for the model; the code
   below only needs two facts about a solution: which subgraph owns each
   vertex (to classify edges as internal or cut) and each subgraph's root
   name (the service the group deploys as). *)

module Callgraph = Quilt_dag.Callgraph
module Topology = Quilt_place.Topology
module Placement = Quilt_place.Placement

(* vertex id -> root name of the owning subgraph *)
let owner_roots (g : Callgraph.t) (sol : Types.solution) =
  let n = Callgraph.n_nodes g in
  let owner = Array.make n (-1) in
  List.iter
    (fun (sg : Types.subgraph) ->
      Array.iteri (fun v m -> if m then owner.(v) <- sg.Types.root) sg.Types.members)
    sol.Types.subgraphs;
  owner

let root_name (g : Callgraph.t) r = (Callgraph.node g r).Callgraph.name

let group_demands ~vcpus ~mem_mb (g : Callgraph.t) (sol : Types.solution) =
  List.map
    (fun (sg : Types.subgraph) ->
      Placement.demand ~service:(root_name g sg.Types.root) ~vcpus ~mem_mb)
    sol.Types.subgraphs

let cut_affinities (g : Callgraph.t) (sol : Types.solution) =
  let owner = owner_roots g sol in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (e : Callgraph.edge) ->
      let ru = owner.(e.Callgraph.src) and rv = owner.(e.Callgraph.dst) in
      if ru <> rv then begin
        let key = if ru < rv then (ru, rv) else (rv, ru) in
        let w = float_of_int (Callgraph.alpha g e) in
        Hashtbl.replace acc key
          (w +. match Hashtbl.find_opt acc key with Some x -> x | None -> 0.0)
      end)
    g.Callgraph.edges;
  Hashtbl.fold
    (fun (ru, rv) w l ->
      { Placement.a_src = root_name g ru; a_dst = root_name g rv; a_weight = w } :: l)
    acc []
  |> List.sort compare

let place ?seed ~vcpus ~mem_mb topo g sol =
  let demands = group_demands ~vcpus ~mem_mb g sol in
  let affinities = cut_affinities g sol in
  Placement.plan ?seed ~affinities topo Placement.Locality demands

let priced_cost_us ~default_rtt_us topo placement (g : Callgraph.t) sol =
  let worst_rtt =
    match topo with
    | Topology.Flat -> default_rtt_us
    | Topology.Cluster c -> c.Topology.rtt_cross_rack_us
  in
  List.fold_left
    (fun acc (a : Placement.affinity) ->
      let rtt =
        match (Placement.node_of placement a.Placement.a_src,
               Placement.node_of placement a.Placement.a_dst)
        with
        | Some u, Some v -> Topology.rtt_us topo ~default_rtt_us u v
        | _ -> worst_rtt
      in
      acc +. (a.Placement.a_weight *. rtt))
    0.0 (cut_affinities g sol)

let select ?seed ~default_rtt_us ~vcpus ~mem_mb topo g candidates =
  let scored =
    List.map
      (fun sol ->
        let placement = place ?seed ~vcpus ~mem_mb topo g sol in
        let cost = priced_cost_us ~default_rtt_us topo placement g sol in
        (sol, placement, cost))
      candidates
  in
  match scored with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun ((_, _, bc) as best) ((_, _, c) as cand) ->
             if c < bc then cand else best)
           first rest)
