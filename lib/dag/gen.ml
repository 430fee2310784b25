module Rng = Quilt_util.Rng

type limits = { max_cpu : float; max_mem_mb : float }

(* Resource demand of the whole graph if merged into one container, using the
   conservative accounting of §4.1 with all alphas taken from edge weights. *)
let whole_graph_demand (g : Callgraph.t) =
  let open Callgraph in
  let root = node g g.root in
  let cpu = ref root.cpu and mem = ref root.mem_mb in
  List.iter
    (fun e ->
      let a = float_of_int (alpha g e) in
      let callee = node g e.dst in
      cpu := !cpu +. (a *. callee.cpu);
      mem := !mem +. callee.mem_mb;
      match e.kind with
      | Async -> mem := !mem +. ((a -. 1.0) *. callee.mem_mb)
      | Sync -> ())
    g.edges;
  (!cpu, !mem)

let random_rdag rng ~n ?(async_fraction = 0.1) ?(heavy_fraction = 0.0) () =
  if n < 2 then invalid_arg "Gen.random_rdag: need at least 2 vertices";
  let nodes =
    Array.init n (fun i ->
        {
          Callgraph.id = i;
          name = Printf.sprintf "f%d" i;
          mem_mb = float_of_int (Rng.int_in rng 8 64);
          cpu = float_of_int (Rng.int_in rng 1 10);
          mergeable = true;
        })
  in
  (* Spanning structure: every vertex i>0 gets one parent among 0..i-1, which
     guarantees connectivity from root 0 and acyclicity. *)
  let edge_set = Hashtbl.create (2 * n) in
  let base_edges = ref [] in
  for i = 1 to n - 1 do
    let parent = Rng.int rng i in
    Hashtbl.replace edge_set (parent, i) ();
    base_edges := (parent, i) :: !base_edges
  done;
  (* Extra edges up to 1.2 * n, always forward in vertex order. *)
  let target = int_of_float (ceil (1.2 *. float_of_int n)) in
  let extra = ref [] in
  let attempts = ref 0 in
  while List.length !base_edges + List.length !extra < target && !attempts < 50 * n do
    incr attempts;
    let a = Rng.int rng (n - 1) in
    let b = Rng.int_in rng (a + 1) (n - 1) in
    if not (Hashtbl.mem edge_set (a, b)) then begin
      Hashtbl.replace edge_set (a, b) ();
      extra := (a, b) :: !extra
    end
  done;
  let all_pairs = List.rev_append !base_edges (List.rev !extra) in
  let edges =
    List.map
      (fun (src, dst) ->
        let kind = if Rng.chance rng async_fraction then Callgraph.Async else Callgraph.Sync in
        let weight =
          if Rng.chance rng heavy_fraction then Rng.int_in rng 20 120 else Rng.int_in rng 1 3
        in
        { Callgraph.src; dst; weight; kind })
      all_pairs
  in
  let g = Callgraph.make ~nodes ~edges ~root:0 ~invocations:1 in
  (* Limits: enough for any single vertex plus its heaviest in-edge demand,
     but strictly below the whole-graph demand so >= 2 containers are needed. *)
  let cpu_all, mem_all = whole_graph_demand g in
  let heaviest_cpu = Array.fold_left (fun acc nd -> Float.max acc nd.Callgraph.cpu) 0.0 nodes in
  let heaviest_mem = Array.fold_left (fun acc nd -> Float.max acc nd.Callgraph.mem_mb) 0.0 nodes in
  let max_cpu = Float.max (2.0 *. heaviest_cpu) (cpu_all /. 2.5) in
  let max_mem_mb = Float.max (2.0 *. heaviest_mem) (mem_all /. 2.5) in
  (g, { max_cpu; max_mem_mb })

let line_graph ~n ~cpu ~mem_mb ~weight =
  if n < 1 then invalid_arg "Gen.line_graph: need at least 1 vertex";
  let nodes =
    Array.init n (fun i -> { Callgraph.id = i; name = Printf.sprintf "f%d" i; mem_mb; cpu; mergeable = true })
  in
  let edges =
    List.init (n - 1) (fun i -> { Callgraph.src = i; dst = i + 1; weight; kind = Callgraph.Sync })
  in
  Callgraph.make ~nodes ~edges ~root:0 ~invocations:1

let diamond () =
  let mk id name = { Callgraph.id; name; mem_mb = 32.0; cpu = 2.0; mergeable = true } in
  let nodes = [| mk 0 "A"; mk 1 "B"; mk 2 "C"; mk 3 "D" |] in
  let edges =
    [
      { Callgraph.src = 0; dst = 1; weight = 1; kind = Callgraph.Async };
      { Callgraph.src = 0; dst = 2; weight = 1; kind = Callgraph.Async };
      { Callgraph.src = 1; dst = 3; weight = 1; kind = Callgraph.Sync };
      { Callgraph.src = 2; dst = 3; weight = 1; kind = Callgraph.Sync };
    ]
  in
  Callgraph.make ~nodes ~edges ~root:0 ~invocations:1
