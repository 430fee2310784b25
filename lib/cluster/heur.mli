(** The simple root-selection heuristic the paper compares DIH against
    (§4.3): weighted in-degree.  It looks only at a local property of a
    vertex, which is why it loses to DIH — it ignores the resource demands
    downstream of a candidate. *)

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
