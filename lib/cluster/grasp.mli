(** GRASP-based decision algorithm for large graphs (Appendix C.4).

    Stage 1 finds an initial feasible root set: starting from a small pool
    size ℓ, it randomly draws ℓ candidates from a Restricted Candidate List
    of the top DIH scorers and checks feasibility, growing ℓ until a
    feasible set appears.  Stage 2 greedily prunes the root with the lowest
    DIH score whenever removing it keeps feasibility and lowers the cost,
    restarting after each success, until a local optimum. *)

val solve :
  Quilt_util.Rng.t ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  Types.solution option
(** The RCL holds the top 2ℓ scorers, and ℓ starts at 3.  Phase 2 uses
    {!Closure.solve} (greedy beyond the exact-search limits).  [None] only
    when even the all-roots assignment is infeasible.  Seeded runs are
    deterministic. *)
