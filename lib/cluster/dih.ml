module Callgraph = Quilt_dag.Callgraph
module Bitset = Quilt_util.Bitset

type weights = { beta : float; gamma : float; delta : float }

let default_weights = { beta = 1.0 /. 3.0; gamma = 1.0 /. 3.0; delta = 1.0 /. 3.0 }

let epsilon = 1e-9

(* Per-vertex downstream demand: the whole-subtree resource accounting over
   the vertex's descendant set.  Descendant sets are bitsets, and only the
   descendants' own adjacency is scanned (edges wholly inside the set are
   exactly the out-edges of its members with an in-set target), instead of
   filtering the global edge list once per vertex. *)
let downstream_demand (g : Callgraph.t) =
  let n = Callgraph.n_nodes g in
  let desc = Callgraph.descendant_sets g in
  Array.init n (fun j ->
      let open Callgraph in
      let d = desc.(j) in
      let jn = node g j in
      let cpu = ref jn.cpu and mem = ref jn.mem_mb in
      Bitset.iter
        (fun v ->
          Array.iter
            (fun e ->
              if Bitset.mem d e.dst then begin
                let a = float_of_int (alpha g e) in
                let callee = node g e.dst in
                cpu := !cpu +. (a *. callee.cpu);
                mem := !mem +. callee.mem_mb;
                match e.kind with
                | Async -> mem := !mem +. ((a -. 1.0) *. callee.mem_mb)
                | Sync -> ()
              end)
            (out_edges g v))
        d;
      (!cpu, !mem))

let scores ?(weights = default_weights) (g : Callgraph.t) (lim : Types.limits) =
  let n = Callgraph.n_nodes g in
  let demand = downstream_demand g in
  let w_in = Array.init n (fun j -> Callgraph.weighted_in_degree g j) in
  let max_w_in =
    let m = ref 0.0 in
    Array.iteri (fun j w -> if j <> g.Callgraph.root && w > !m then m := w) w_in;
    !m
  in
  Array.init n (fun j ->
      if j = g.Callgraph.root then 0.0
      else begin
        let cpu_ds, mem_ds = demand.(j) in
        (weights.beta *. (w_in.(j) /. (max_w_in +. epsilon)))
        +. (weights.gamma *. (mem_ds /. (lim.Types.max_mem_mb +. epsilon)))
        +. (weights.delta *. (cpu_ds /. (lim.Types.max_cpu +. epsilon)))
      end)

let candidate_pool ?weights (g : Callgraph.t) (lim : Types.limits) size =
  let s = scores ?weights g lim in
  let candidates =
    List.filter (fun j -> j <> g.Callgraph.root) (List.init (Callgraph.n_nodes g) (fun i -> i))
  in
  let ranked = List.sort (fun a b -> compare s.(b) s.(a)) candidates in
  List.filteri (fun i _ -> i < size) ranked

let solve ?weights ?pool_size ?k_max ?patience ?(fallback = true) (g : Callgraph.t)
    (lim : Types.limits) =
  let n = Callgraph.n_nodes g in
  let pool_size = match pool_size with Some p -> p | None -> min 8 (n - 1) in
  let pool = candidate_pool ?weights g lim pool_size in
  match Sweep.solve_over_pool ?k_max ?patience g lim ~pool with
  | Some sol -> Some sol
  | None when not fallback -> None
  | None ->
      (* Last resort: every vertex its own root (no merging).  Feasible iff
         each vertex alone fits in a container. *)
      let all = List.init n (fun i -> i) in
      if Closure.root_set_feasible g lim ~roots:all then Closure.solve_greedy g lim ~roots:all
      else None
