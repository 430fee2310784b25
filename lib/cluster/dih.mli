(** The Downstream Impact Heuristic (§4.3, Appendix C).

    Each non-root vertex j is scored by a weighted sum of (a) its normalized
    weighted in-degree (the direct cost pressure of cutting its in-edges),
    (b) the memory demand of everything reachable from j relative to the
    container limit M, and (c) the CPU demand of its descendants relative to
    C.  High scores mark "gateways to resource-heavy subgraphs" that make
    good subgraph roots.  Descendant sets are computed once, with
    memoization in reverse topological order (Appendix C.3).  The three
    terms weigh equally: β = γ = δ = 1/3. *)

val downstream_demand : Quilt_dag.Callgraph.t -> (float * float) array
(** Per vertex j: (C_ds(j), M_ds(j)) — the CPU and memory that the
    descendant subgraph of j would consume if merged (Appendix C.1). *)

val scores : Quilt_dag.Callgraph.t -> Types.limits -> float array
(** Score(j) for every vertex; the graph root's score is 0 (it is always a
    root and never a candidate). *)

val candidate_pool : Quilt_dag.Callgraph.t -> Types.limits -> int -> int list
(** Top-ℓ non-root vertices by score, best first. *)

val solve :
  ?k_max:int ->
  ?fallback:bool ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  Types.solution option
(** The DIH decision algorithm: build the candidate pool of size
    min(8, |V|−1) and sweep root sets drawn from it ({!Sweep}).  With
    [fallback] (default true), makes every vertex a root when the pool
    yields nothing feasible. *)
