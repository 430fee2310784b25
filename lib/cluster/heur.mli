(** Simple root-selection heuristics the paper compares DIH against (§4.3):
    weighted in-degree, weighted out-degree, and betweenness centrality.
    They look only at local properties of a vertex, which is why they lose
    to DIH — they ignore the resource demands downstream of a candidate. *)

val weighted_out_degree_scores : Quilt_dag.Callgraph.t -> float array

val betweenness_scores : Quilt_dag.Callgraph.t -> float array
(** Brandes' algorithm on the unweighted DAG. *)

val solve_weighted_degree :
  ?pool_size:int ->
  ?k_max:int ->
  ?fallback:bool ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  Types.solution option
(** The "simple heuristic" of Experiment 5: for each k, the k−1 vertices
    with the highest weighted in-degree become the root set — a purely
    local criterion with no subset exploration and no downstream-resource
    awareness, which is exactly why it loses to DIH (Appendix C). *)

val solve_betweenness :
  ?pool_size:int ->
  ?k_max:int ->
  ?fallback:bool ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  Types.solution option
(** Same naive strategy ranked by betweenness centrality — the other
    insufficient candidate §4.3 mentions. *)
