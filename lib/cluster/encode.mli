(** Literal ILP encoding of the subgraph-construction problem, following
    Appendix B: decision variables x_{i,j} (edge is cut), y_{i,r} (vertex i
    assigned to the subgraph rooted at r), and the linearization variables
    z_{i,j,r}; the eight constraint families; objective Σ w·x.

    This is the faithful transcription of what the paper hands to Gurobi.
    {!Closure.solve_exact} solves the same problem structurally; the test
    suite checks that both agree, which validates both the encoding and the
    structural argument. *)

type encoding = {
  problem : Quilt_ilp.Lp.problem;
  roots : int list;  (** Root order used for variable indexing. *)
  x_index : int -> int;  (** Edge position (in [g.edges] order) → variable. *)
  y_index : int -> int -> int;  (** [y_index i rpos] with rpos an index into [roots]. *)
}

val encode :
  Quilt_dag.Callgraph.t -> Types.limits -> roots:int list -> encoding
(** Builds the ILP for a fixed root set.  The root list is normalized to
    contain the graph root first, like {!Closure.solve_exact}. *)

val solve_ilp :
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  roots:int list ->
  Types.solution option
(** Encodes, runs {!Quilt_ilp.Bb.solve}, and decodes the assignment into a
    {!Types.solution}.  [None] when the ILP is infeasible. *)
