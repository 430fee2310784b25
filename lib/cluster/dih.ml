module Callgraph = Quilt_dag.Callgraph
module Bitset = Quilt_util.Bitset

(* β = γ = δ: the in-degree and the two downstream-pressure terms weigh
   equally. *)
let beta = 1.0 /. 3.0
let gamma = 1.0 /. 3.0
let delta = 1.0 /. 3.0

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

let scores (g : Callgraph.t) (lim : Types.limits) =
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
        (beta *. (w_in.(j) /. (max_w_in +. epsilon)))
        +. (gamma *. (mem_ds /. (lim.Types.max_mem_mb +. epsilon)))
        +. (delta *. (cpu_ds /. (lim.Types.max_cpu +. epsilon)))
      end)

let candidate_pool (g : Callgraph.t) (lim : Types.limits) size =
  let s = scores g lim in
  let candidates =
    List.filter (fun j -> j <> g.Callgraph.root) (List.init (Callgraph.n_nodes g) (fun i -> i))
  in
  let ranked = List.sort (fun a b -> compare s.(b) s.(a)) candidates in
  List.filteri (fun i _ -> i < size) ranked

let solve ?k_max ?(fallback = true) (g : Callgraph.t) (lim : Types.limits) =
  let n = Callgraph.n_nodes g in
  let pool = candidate_pool g lim (min 8 (n - 1)) in
  match Sweep.solve_over_pool ?k_max g lim ~pool with
  | Some sol -> Some sol
  | None when not fallback -> None
  | None ->
      (* Last resort: every vertex its own root (no merging).  Feasible iff
         each vertex alone fits in a container. *)
      let all = List.init n (fun i -> i) in
      if Closure.root_set_feasible g lim ~roots:all then Closure.solve_greedy g lim ~roots:all
      else None
