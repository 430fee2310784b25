module Bitset = Quilt_util.Bitset

type call_kind = Sync | Async

type node = { id : int; name : string; mem_mb : float; cpu : float; mergeable : bool }

type edge = { src : int; dst : int; weight : int; kind : call_kind }

type t = {
  nodes : node array;
  edges : edge list;
  root : int;
  invocations : int;
  succ_adj : edge array array;
  pred_adj : edge array array;
}

let n_nodes g = Array.length g.nodes

let node g i = g.nodes.(i)

let find_node g name = Array.find_opt (fun n -> n.name = name) g.nodes

let out_edges g i = g.succ_adj.(i)

let in_edges g i = g.pred_adj.(i)

let succs g i = Array.to_list g.succ_adj.(i)

let preds g i = Array.to_list g.pred_adj.(i)

let iter_succs g i f = Array.iter f g.succ_adj.(i)

let alpha g e =
  let n = if g.invocations <= 0 then 1 else g.invocations in
  let a = (e.weight + n - 1) / n in
  if a < 1 then 1 else a

(* Adjacency is built once at graph construction; per-node arrays preserve
   the order of the original edge list so that any summation over edges is
   a permutation of the old all-edges scan. *)
let build_adjacency ~n edges =
  let out_deg = Array.make n 0 and in_deg = Array.make n 0 in
  List.iter
    (fun e ->
      out_deg.(e.src) <- out_deg.(e.src) + 1;
      in_deg.(e.dst) <- in_deg.(e.dst) + 1)
    edges;
  let dummy = { src = 0; dst = 0; weight = 0; kind = Sync } in
  let succ_adj = Array.init n (fun i -> Array.make out_deg.(i) dummy) in
  let pred_adj = Array.init n (fun i -> Array.make in_deg.(i) dummy) in
  let out_fill = Array.make n 0 and in_fill = Array.make n 0 in
  List.iter
    (fun e ->
      succ_adj.(e.src).(out_fill.(e.src)) <- e;
      out_fill.(e.src) <- out_fill.(e.src) + 1;
      pred_adj.(e.dst).(in_fill.(e.dst)) <- e;
      in_fill.(e.dst) <- in_fill.(e.dst) + 1)
    edges;
  (succ_adj, pred_adj)

(* Kahn's algorithm; also detects cycles. *)
let topo_order_opt g =
  let n = Array.length g.nodes in
  let indeg = Array.init n (fun i -> Array.length g.pred_adj.(i)) in
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    incr seen;
    Array.iter
      (fun e ->
        indeg.(e.dst) <- indeg.(e.dst) - 1;
        if indeg.(e.dst) = 0 then Queue.add e.dst queue)
      g.succ_adj.(v)
  done;
  if !seen = n then Some (List.rev !order) else None

let topo_order g =
  match topo_order_opt g with
  | Some o -> o
  | None -> invalid_arg "Callgraph.topo_order: graph has a cycle"

let reachable_from g start =
  let n = Array.length g.nodes in
  let seen = Bitset.create n in
  let rec visit v =
    if not (Bitset.mem seen v) then begin
      Bitset.set seen v;
      Array.iter (fun e -> visit e.dst) g.succ_adj.(v)
    end
  in
  visit start;
  seen

let make ~nodes ~edges ~root ~invocations =
  let n = Array.length nodes in
  if n = 0 then invalid_arg "Callgraph.make: empty graph";
  Array.iteri
    (fun i nd -> if nd.id <> i then invalid_arg "Callgraph.make: node ids must be dense and in order")
    nodes;
  if root < 0 || root >= n then invalid_arg "Callgraph.make: root out of range";
  List.iter
    (fun e ->
      if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
        invalid_arg "Callgraph.make: edge endpoint out of range";
      if e.weight < 0 then invalid_arg "Callgraph.make: negative edge weight")
    edges;
  let succ_adj, pred_adj = build_adjacency ~n edges in
  let g = { nodes; edges; root; invocations; succ_adj; pred_adj } in
  (match topo_order_opt g with
  | Some _ -> ()
  | None -> invalid_arg "Callgraph.make: graph has a cycle");
  let seen = reachable_from g root in
  for i = 0 to n - 1 do
    if not (Bitset.mem seen i) then
      invalid_arg (Printf.sprintf "Callgraph.make: node %d (%s) unreachable from root" i nodes.(i).name)
  done;
  g

let descendant_sets g =
  let n = Array.length g.nodes in
  let sets = Array.init n (fun _ -> Bitset.create 0) in
  let computed = Array.make n false in
  (* Reverse topological order: successors are memoized before each node, so
     each set is the word-level union of the successors' sets. *)
  let order = List.rev (topo_order g) in
  List.iter
    (fun v ->
      let d = Bitset.create n in
      Bitset.set d v;
      Array.iter
        (fun e ->
          assert computed.(e.dst);
          Bitset.union_into ~dst:d sets.(e.dst))
        g.succ_adj.(v);
      sets.(v) <- d;
      computed.(v) <- true)
    order;
  sets

let with_mergeable g can_merge =
  { g with nodes = Array.map (fun n -> { n with mergeable = can_merge n.name }) g.nodes }

let weighted_in_degree g i =
  Array.fold_left (fun acc e -> acc +. float_of_int e.weight) 0.0 g.pred_adj.(i)

let pp fmt g =
  Format.fprintf fmt "@[<v>call graph (root=%s, N=%d)@," g.nodes.(g.root).name g.invocations;
  Array.iter
    (fun nd -> Format.fprintf fmt "  node %d %-24s mem=%.1fMB cpu=%.2f@," nd.id nd.name nd.mem_mb nd.cpu)
    g.nodes;
  List.iter
    (fun e ->
      Format.fprintf fmt "  edge %s -> %s w=%d (%s)@," g.nodes.(e.src).name g.nodes.(e.dst).name
        e.weight
        (match e.kind with Sync -> "sync" | Async -> "async"))
    g.edges;
  Format.fprintf fmt "@]"

let to_dot g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph callgraph {\n";
  Array.iter
    (fun nd ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\\nmem=%.0fMB cpu=%.1f\"];\n" nd.id nd.name nd.mem_mb nd.cpu))
    g.nodes;
  List.iter
    (fun e ->
      let style = match e.kind with Sync -> "solid" | Async -> "dashed" in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%d\",style=%s];\n" e.src e.dst e.weight style))
    g.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
