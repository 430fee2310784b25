(** The optimal merge-decision algorithm (§4.2).

    Sweeps every number of subgraphs k from 1 to |V| and, for each k, every
    candidate root set (the graph root plus any k−1 other vertices); Phase 2
    ({!Closure.solve_exact}) finds the optimal assignment for each set.  The
    best assignment over all k is optimal for the full problem (Appendix A
    shows why all k must be tried).  Exponential in |V|: practical for
    workflows of ≤ ~15 functions, which covers the benchmark applications. *)

val solve : Quilt_dag.Callgraph.t -> Types.limits -> Types.solution option
(** Returns [None] when no feasible grouping exists even with every vertex
    its own root.

    The sweep is sequential and threads one {!Closure.solve_exact}
    incumbent through every root set, so the best cost found so far prunes
    every later search.  Root sets are folded in enumeration order with a
    strict-improvement rule: the first optimal grouping found wins. *)
