(** Placement policies: which node hosts which deployment.

    A policy maps a list of per-deployment resource demands (plus, for the
    locality policy, pairwise communication affinities) onto the nodes of a
    {!Topology.cluster}, without ever over-committing a node's vCPU or
    memory capacity.  All four policies are deterministic: equal inputs and
    equal seeds produce identical placements (the seed only permutes the
    tie-break priority among equally-scored nodes).  Every demand is either
    placed or explicitly rejected with a reason — nothing is dropped
    silently.

    Policies:
    - [First_fit]: lowest-priority-rank node with room.  The topology-
      oblivious baseline — what a scheduler that knows capacities but not
      communication does.
    - [Best_fit]: minimal normalized slack left after placing (classic
      bin-packing; concentrates load, leaves big holes for big demands).
    - [Locality]: co-locate deployments joined by heavy affinities (cut
      edges).  Demands are placed in descending order of total affinity;
      each picks the feasible node minimizing Σ affinity × RTT to its
      already-placed partners — the Costless insight that placement prices
      the cut edges.
    - [Spread]: resilience first — fewest same-rack then same-node
      neighbours, then most free capacity, so a node or rack failure takes
      out as little as possible. *)

type demand = {
  d_service : string;
  d_vcpus : float;  (** Per-container vCPU limit the node must reserve. *)
  d_mem_mb : float;  (** Per-container memory limit, ditto. *)
}

type affinity = {
  a_src : string;
  a_dst : string;
  a_weight : float;  (** Calls per workflow across this edge (α). *)
}

type policy = First_fit | Best_fit | Locality | Spread

type t = {
  placed : (string * int) list;  (** service → node id, in placement order. *)
  rejected : (string * string) list;  (** service → reason. *)
}

val policy_name : policy -> string
val policy_of_string : string -> policy option

val demand : service:string -> vcpus:float -> mem_mb:float -> demand

val plan :
  ?seed:int ->
  ?affinities:affinity list ->
  Topology.t ->
  policy ->
  demand list ->
  t
(** [plan topo policy demands] assigns each demand a node.  On a [Flat]
    topology everything lands on the single implicit node 0.  Capacity
    accounting is exact: a node is feasible for a demand iff both its
    remaining vCPUs and remaining memory cover it. *)

val node_of : t -> string -> int option

val cross_rack_weight : Topology.t -> t -> affinity list -> float
(** Σ of affinity weight over pairs placed in different racks — the static
    "how much traffic crosses the spine" score of a placement. *)

val pp : Format.formatter -> t -> unit
