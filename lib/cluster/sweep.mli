(** Root-set enumeration shared by the optimal algorithm and the
    candidate-pool heuristics.

    Phase 1 of §4.2 produces candidate root sets; Phase 2 ({!Closure})
    constructs the optimal subgraphs for each.  The optimal algorithm sweeps
    every k and every (k−1)-subset of all vertices; the heuristics sweep
    subsets of a small ranked candidate pool. *)

val combinations : 'a list -> int -> 'a list list
(** All subsets of the given size, in lexicographic order of the input. *)

val solve_over_pool :
  ?k_max:int ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  pool:int list ->
  Types.solution option
(** Sweeps k = 1, 2, ... taking the k−1 extra roots from subsets of [pool];
    Phase 2 is {!Closure.solve}, with one incumbent threaded through every
    root set (see {!Closure.solve_exact}).  Stops after two
    consecutive values of k without improvement, or at [k_max]
    (default [List.length pool + 1]).  Returns the best solution found. *)
