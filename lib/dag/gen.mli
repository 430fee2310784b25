(** Random rDAG generation for the decision-algorithm experiments (§7.5.2).

    Experiment 5 generates random rooted DAGs with 20% more edges than
    vertices, 10% of edges asynchronous, random CPU and memory per vertex,
    and container limits chosen so that the graph needs at least two
    containers to satisfy all constraints.  {!random_rdag} reproduces that
    recipe and returns both the graph and the derived limits. *)

type limits = { max_cpu : float; max_mem_mb : float }

val random_rdag :
  Quilt_util.Rng.t ->
  n:int ->
  ?async_fraction:float ->
  ?heavy_fraction:float ->
  unit ->
  Callgraph.t * limits
(** [random_rdag rng ~n ()] builds a connected rooted DAG with [n] vertices
    and approximately [1.2 * n] edges, each extra edge respecting the
    topological order so the result is acyclic.  [async_fraction]
    (default 0.1) of edges are asynchronous; weights are uniform in
    [\[1, 3\]] per workflow invocation.
    [heavy_fraction] (default 0) of edges get a heavy-tailed weight in
    [\[20, 120\]] — serverless call frequencies are skewed, and the skew is
    what separates good root choices from bad ones in Figure 9.
    The limits are set between the resource needs of the heaviest single
    vertex (so every vertex fits somewhere) and the needs of the whole graph
    (so at least two containers are required). *)

val line_graph : n:int -> cpu:float -> mem_mb:float -> weight:int -> Callgraph.t
(** A simple chain f0 -> f1 -> ... -> f(n-1) of synchronous unit-weight
    calls; handy in tests. *)

val diamond : unit -> Callgraph.t
(** The diamond A->{B,C}->D used in §4.1's memory-constraint discussion,
    with (A,B) and (A,C) asynchronous. *)
