(** Front door for the merge-decision phase (§4): pick an algorithm, get a
    validated grouping.

    This is also where the parallel decision subsystem is assembled: a
    portfolio of solver arms racing over the Domain pool ({!auto}), and the
    warm-start incremental re-decision path the control plane uses on drift
    ticks ({!resolve_incremental}).  Every parallel path returns
    bit-identical solutions to its sequential counterpart (qcheck-pinned),
    and [QUILT_SEQUENTIAL=1] forces the sequential code end-to-end. *)

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
  ?seed:int ->
  ?domains:int ->
  algorithm ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  Types.solution option
(** Runs the chosen algorithm.  [seed] (default 1) feeds GRASP's randomized
    stage.  [domains] (default 1) parallelizes the chosen algorithm's inner
    sweep with output-identical results.  Every returned solution has
    passed {!Metrics.solution_valid}; a solver bug therefore surfaces as an
    exception here rather than as a corrupt deployment downstream. *)

val auto :
  ?seed:int ->
  ?domains:int ->
  ?budget_s:float ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  Types.solution option
(** What the Quilt optimizer itself uses: {!auto_algorithm}'s pick, run on
    up to [domains] domains (default {!Quilt_util.Pool.default_domains}).

    With [domains > 1], the exact regime races a portfolio: DIH and GRASP
    arms run on their own domains and seed the exact sweep's incumbent with
    their solution costs the moment they finish (heuristic-warmed pruning);
    the exact arm's result is returned.  Heuristic regimes parallelize the
    primary's own sweep instead.  In every regime the output equals the
    sequential [auto] for equal seeds (qcheck-pinned); [QUILT_SEQUENTIAL=1]
    forces the sequential path.

    [budget_s] (opt-in, default off) arms a wall-clock budget: if the exact
    arm exceeds it, the best solution known across all arms is returned —
    explicitly trading the determinism guarantee for bounded latency. *)

val race :
  incumbent:int Atomic.t ->
  arms:(unit -> Types.solution option) list ->
  (unit -> 'a) ->
  'a * Types.solution option list
(** The portfolio's racing primitive, used by {!auto}: [race ~incumbent
    ~arms primary] runs each arm on its own domain, lowering [incumbent]
    to an arm's solution cost the moment it finishes, while [primary]
    runs in the calling domain.  Returns [primary]'s result and the arms'
    results in order.  Every arm is joined before [race] returns or
    raises; a failure in [primary] or in any arm is re-raised (the
    primary's first, then the arms' in order), never swallowed. *)

val resolve_incremental :
  ?seed:int ->
  ?domains:int ->
  prev_graph:Quilt_dag.Callgraph.t ->
  prev:Types.solution ->
  report:Quilt_dag.Drift.report ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  Types.solution option
(** Warm-start re-decision after drift: [prev] is the solution currently
    deployed (decided on [prev_graph]), [report] the {!Quilt_dag.Drift}
    report against the fresh graph [g].  Only groups containing a function
    in {!Quilt_dag.Drift.touched_functions} are re-decided (each on its
    induced sub-callgraph, with a keep-whole fast path for groups that
    still fit their container); untouched groups are spliced through
    unchanged, and the spliced assembly is re-validated against [g].

    Returns [None] — meaning the caller must fall back to a from-scratch
    solve — when the report shows topology drift, when a touched group's
    local re-solve fails, or when the spliced assembly no longer validates
    (e.g. a local split demoted a root that other groups still cut edges
    to).  A returned solution always passes {!Metrics.solution_valid}.

    Differential guarantee (pinned by qcheck): re-deciding only the touched
    groups yields exactly the same solution as feeding
    {!Quilt_dag.Drift.touch_all}'s everything-touched report through the
    same path, because an untouched group's local re-solve provably returns
    the group unchanged. *)
