(* Cluster topology: nodes, racks, and the three-tier RTT matrix.  See the
   interface for the model; this file is pure data + arithmetic so that both
   the engine (charging hops) and the placement policies (scoring candidate
   nodes) agree on distances by construction. *)

type node = {
  node_id : int;
  node_name : string;
  rack : int;
  vcpus : float;
  mem_mb : float;
}

type dist = Same_node | Same_rack | Cross_rack

type cluster = {
  nodes : node array;
  rtt_same_node_us : float;
  rtt_same_rack_us : float;
  rtt_cross_rack_us : float;
  image_cache : bool;
}

type t = Flat | Cluster of cluster

let flat = Flat

let node ?name ~rack ~vcpus ~mem_mb () =
  let node_name = match name with Some n -> n | None -> "" in
  { node_id = -1; node_name; rack; vcpus; mem_mb }

let make ?(rtt_same_node_us = 5.0) ?(rtt_same_rack_us = 150.0)
    ?(rtt_cross_rack_us = 550.0) ?(image_cache = true) nodes =
  if nodes = [] then invalid_arg "Topology.make: empty node list";
  let arr =
    Array.of_list nodes
    |> Array.mapi (fun i n ->
           if n.vcpus <= 0.0 || n.mem_mb <= 0.0 then
             invalid_arg "Topology.make: non-positive node capacity";
           let node_name =
             if n.node_name = "" then Printf.sprintf "rack%d/n%d" n.rack i
             else n.node_name
           in
           { n with node_id = i; node_name })
  in
  Cluster
    {
      nodes = arr;
      rtt_same_node_us;
      rtt_same_rack_us;
      rtt_cross_rack_us;
      image_cache;
    }

let n_nodes = function Flat -> 1 | Cluster c -> Array.length c.nodes

let dist c a b =
  if a = b then Same_node
  else if c.nodes.(a).rack = c.nodes.(b).rack then Same_rack
  else Cross_rack

let rtt_us t ~default_rtt_us a b =
  match t with
  | Flat -> default_rtt_us
  | Cluster c -> (
      match dist c a b with
      | Same_node -> c.rtt_same_node_us
      | Same_rack -> c.rtt_same_rack_us
      | Cross_rack -> c.rtt_cross_rack_us)

let describe = function
  | Flat -> "flat (single implicit node)"
  | Cluster c ->
      let racks =
        Array.fold_left (fun acc n -> max acc (n.rack + 1)) 0 c.nodes
      in
      let vcpus = Array.fold_left (fun acc n -> acc +. n.vcpus) 0.0 c.nodes in
      Printf.sprintf
        "%d nodes / %d racks, %.0f vCPUs total, rtt %g/%g/%g us \
         (node/rack/cross)%s"
        (Array.length c.nodes) racks vcpus c.rtt_same_node_us
        c.rtt_same_rack_us c.rtt_cross_rack_us
        (if c.image_cache then ", per-node image cache" else "")
