(** Front door for the merge-decision phase (§4): pick an algorithm, get a
    validated grouping.

    There is one decision path and it is sequential: every algorithm runs
    in the calling domain, and the exact regime is one {!Optimal} sweep
    over {!Closure.solve_exact}.  A drift-triggered re-decision is a
    fresh {!auto} call on the new graph. *)

type algorithm =
  | Optimal  (** Exhaustive k-sweep (§4.2); small graphs only. *)
  | Dih  (** Downstream-Impact candidate pool + sweep (§4.3, App. C). *)
  | Weighted_degree  (** The simple baseline heuristic of Experiment 5. *)
  | Grasp  (** Large-graph GRASP + refinement (App. C.4). *)

val algorithm_name : algorithm -> string

val auto_algorithm : Quilt_dag.Callgraph.t -> algorithm
(** The size-based dispatch {!auto} uses: [Optimal] for ≤ 12 vertices,
    [Dih] up to 60, [Grasp] beyond.  The {!Closure.exact_max_roots} /
    {!Closure.exact_max_root_edges} caps are therefore never breached by
    [auto]-driven solves: the exact search only runs in the ≤ 12-vertex
    regime or behind {!Closure.solve}'s own cap check. *)

val solve :
  ?seed:int -> algorithm -> Quilt_dag.Callgraph.t -> Types.limits -> Types.solution option
(** Runs the chosen algorithm.  [seed] (default 1) feeds GRASP's randomized
    stage.  Every returned solution has passed {!Metrics.solution_valid}; a
    solver bug therefore surfaces as an exception here rather than as a
    corrupt deployment downstream. *)

val auto :
  ?seed:int -> ?domains:int -> Quilt_dag.Callgraph.t -> Types.limits -> Types.solution option
(** What the Quilt optimizer itself uses: {!solve} with {!auto_algorithm}'s
    pick.  [domains] is unused and ignored; it is accepted only because the
    repository benchmark still passes it, and goes with the next change to
    that benchmark. *)
