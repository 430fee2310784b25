(** Topology-priced cut edges: the joint merge + placement decision.

    The decision algorithms of this library score a grouping by its cut
    weight — remote calls per profiling window — implicitly pricing every
    remote call at one flat network constant.  On a real cluster that
    constant does not exist: a cut edge between two groups on the same node
    costs loopback, across racks it costs the spine (Costless's
    observation that fusion and placement must be optimized jointly).

    This module re-prices a solution's cut edges under a concrete
    {!Quilt_place.Topology.t} and the placement the [Locality] policy
    would choose for its groups, and
    {!select} takes the argmin over candidate solutions — mirroring the
    reliability-aware candidate scoring of [Quilt.solve_with_penalty], with
    network-µs per workflow invocation as the objective.  A merge that
    looked mediocre under the flat constant can win once its surviving cut
    edges land same-node; a merge that only paid off by hiding cross-rack
    hops can lose to a cheaper grouping whose groups co-locate. *)

val group_demands :
  vcpus:float ->
  mem_mb:float ->
  Quilt_dag.Callgraph.t ->
  Types.solution ->
  Quilt_place.Placement.demand list
(** One placement demand per subgraph (a merged group deploys as one
    service), named after the subgraph's root function and sized by the
    per-container limits the platform would give it.  Solution order. *)

val cut_affinities :
  Quilt_dag.Callgraph.t -> Types.solution -> Quilt_place.Placement.affinity list
(** The solution's cut edges, lifted to group granularity: an affinity
    between the root services of the two subgraphs an edge crosses,
    weighted by α (calls per workflow invocation).  Parallel cut edges
    between the same pair accumulate. *)

val place :
  ?seed:int ->
  vcpus:float ->
  mem_mb:float ->
  Quilt_place.Topology.t ->
  Quilt_dag.Callgraph.t ->
  Types.solution ->
  Quilt_place.Placement.t
(** Placement of the solution's groups under the [Locality] policy, fed
    the cut affinities. *)

val priced_cost_us :
  default_rtt_us:float ->
  Quilt_place.Topology.t ->
  Quilt_place.Placement.t ->
  Quilt_dag.Callgraph.t ->
  Types.solution ->
  float
(** Σ over cut edges of α × RTT between the hosting nodes — network-µs per
    workflow invocation.  On a [Flat] topology every cut edge prices at
    [default_rtt_us], recovering the seed's flat objective (up to the
    constant factor).  Groups the placement rejected are priced at the
    worst tier — an unplaceable group buys nothing. *)

val select :
  ?seed:int ->
  default_rtt_us:float ->
  vcpus:float ->
  mem_mb:float ->
  Quilt_place.Topology.t ->
  Quilt_dag.Callgraph.t ->
  Types.solution list ->
  (Types.solution * Quilt_place.Placement.t * float) option
(** Joint decision: place every candidate solution, price its cut edges
    under that placement, and return the (solution, placement, priced
    cost) argmin.  Earlier candidates win ties, like
    [Quilt.solve_with_penalty].  [None] on an empty candidate list. *)
