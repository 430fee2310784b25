(** Cluster topology: worker nodes, racks, and the distance-derived RTT
    matrix.

    The seed simulator models a flat world — one implicit node and a single
    [Params.rtt_us] for every remote hop.  Quilt's evaluation runs on a
    six-machine cluster (§7.1), and Costless shows that fusion and placement
    must be optimized jointly: where a merged group lands changes what its
    cut edges cost.  This module is the ground truth both the engine and the
    placement policies share: node capacities, rack membership, and the
    three-tier RTT (same-node / same-rack / cross-rack).

    A [Flat] topology is the seed world and changes nothing; the engine only
    diverges from the seed when given a [Cluster]. *)

type node = {
  node_id : int;  (** Dense index, [0 .. n-1]. *)
  node_name : string;  (** Human-readable, e.g. ["rack0/n0"]. *)
  rack : int;  (** Failure/locality domain the node belongs to. *)
  vcpus : float;  (** Schedulable cores on the node. *)
  mem_mb : float;  (** Schedulable memory on the node. *)
}

type dist = Same_node | Same_rack | Cross_rack

type cluster = {
  nodes : node array;
  rtt_same_node_us : float;  (** Loopback; ~0 but kept nonzero. *)
  rtt_same_rack_us : float;  (** One ToR switch. *)
  rtt_cross_rack_us : float;  (** ToR → spine → ToR. *)
  image_cache : bool;
      (** When true, a node pays an image pull once; later cold starts of
          the same image on that node skip the pull (registry-cache
          behaviour).  [false] reproduces the seed's per-container pull. *)
}

type t = Flat | Cluster of cluster

val flat : t
(** The seed world: one implicit node, every hop at [Params.rtt_us]. *)

val make :
  ?rtt_same_node_us:float ->
  ?rtt_same_rack_us:float ->
  ?rtt_cross_rack_us:float ->
  ?image_cache:bool ->
  node list ->
  t
(** [make nodes] builds a cluster.  Node ids are reassigned densely in list
    order.  Defaults: 5 µs same-node, 150 µs same-rack, 550 µs cross-rack
    (the paper's flat 200 µs testbed RTT sits between the two rack tiers),
    image cache on.  Raises [Invalid_argument] on an empty node list or a
    non-positive capacity. *)

val node :
  ?name:string -> rack:int -> vcpus:float -> mem_mb:float -> unit -> node
(** Convenience constructor; [node_id] is assigned by {!make}. *)

val n_nodes : t -> int
(** Number of nodes; a [Flat] topology reports 1. *)

val dist : cluster -> int -> int -> dist
(** [dist c a b] is the distance class between nodes [a] and [b]. *)

val rtt_us : t -> default_rtt_us:float -> int -> int -> float
(** RTT between two nodes.  [Flat] returns [default_rtt_us] (the seed
    constant) so callers need no special case. *)

val describe : t -> string
(** One-line summary for CLI output. *)
