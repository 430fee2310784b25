(** Phase 2 of the decision algorithm: subgraph construction for a fixed
    root set (§4.2, Appendix B), solved by exploiting problem structure.

    For a fixed root set R, ILP constraints 3 (connectivity) and 5
    (cross-edge root rule) force the membership of each subgraph G_r to be
    the "non-root closure" of the set of roots it absorbs: starting from any
    included vertex, every callee that is not a root must also be included.
    Hence the only free decisions are, for each root r, which *other roots*
    G_r absorbs — a set S_r ⊆ R with r ∈ S_r.  This module enumerates absorb
    sets with monotone resource pruning and runs a branch-and-bound over the
    joint choice; the result is provably the ILP optimum (cross-checked
    against the generic solver in the test suite).

    Edges whose target is not a root can never be cut; edges into a root j
    are internal only if {e every} subgraph containing the source also
    absorbs j.

    All vertex sets are word-packed {!Quilt_util.Bitset}s internally and all
    neighbourhood scans go through the call graph's precomputed adjacency;
    the greedy solver additionally evaluates candidate moves incrementally
    (per-subgraph resource totals and cut sets, delta-updated per absorb)
    instead of rebuilding the solution per candidate. *)

val exact_max_roots : int
(** Largest root-set size the exact solver accepts; {!solve} dispatches to
    {!solve_greedy} above it.  The same cap is enforced by the higher-level
    dispatchers — [Decision.solve]/[Decision.auto] and the portfolio arms
    they race — which route over-cap instances to heuristic solvers, so no
    caller reaches the exact search past the boundary.  Shared so the
    dispatchers and the solver can never disagree about it. *)

val exact_max_root_edges : int
(** Largest number of root-targeted edges the exact solver accepts (its cut
    masks live in one [int]); a dispatch boundary exactly like
    {!exact_max_roots}, enforced both by {!solve} and by the
    [Decision]-level/portfolio dispatch. *)

val nr_closure : Quilt_dag.Callgraph.t -> is_root:bool array -> int -> bool array
(** [nr_closure g ~is_root r] is the least vertex set containing [r] that is
    closed under following edges to non-root targets.  [r] itself is included
    whether or not it is a root. *)

val nr_closure_bits :
  Quilt_dag.Callgraph.t -> is_root:Quilt_util.Bitset.t -> int -> Quilt_util.Bitset.t
(** Bitset-native variant of {!nr_closure} (the hot-path entry point). *)

val resources :
  Quilt_dag.Callgraph.t -> members:bool array -> root:int -> float * float
(** [(cpu, mem)] demand of a subgraph with the given member set, per the
    accounting of Appendix B constraints 6–7: [cpu = c_root + Σ_internal
    α·c_j]; [mem = m_root + Σ_internal m_j + Σ_internal-async (α−1)·m_j]. *)

val resources_bits :
  Quilt_dag.Callgraph.t -> members:Quilt_util.Bitset.t -> root:int -> float * float
(** Bitset-native variant of {!resources}. *)

val connected_bits :
  Quilt_dag.Callgraph.t -> members:Quilt_util.Bitset.t -> root:int -> bool
(** Connectivity per ILP constraint 3: every member except [root] has an
    in-edge from another member (equivalently, in a DAG, every member is
    reachable from [root] inside the member set). *)

val forced_roots : Quilt_dag.Callgraph.t -> int list
(** Roots every solution must contain because of the opt-in bit: each
    non-mergeable vertex and all of its direct callees (so the pinned
    vertex's group is exactly itself). *)

val root_set_feasible :
  Quilt_dag.Callgraph.t -> Types.limits -> roots:int list -> bool
(** A root set is feasible iff every root's minimal subgraph (absorb set
    {r}) satisfies the limits; larger absorb sets only add demand. *)

val solve_exact :
  Quilt_dag.Callgraph.t -> Types.limits -> roots:int list -> Types.solution option
(** Optimal subgraph construction for the given roots, or [None] when
    infeasible.  The root list must contain the graph root; duplicates are
    ignored.  Raises [Invalid_argument] when the instance breaches either
    cap: more than {!exact_max_roots} roots (after normalization, i.e.
    including forced roots), or more than {!exact_max_root_edges}
    root-targeted edges — use {!solve_greedy} there.  This is the purely
    sequential search; [QUILT_SEQUENTIAL=1] forces every caller onto it. *)

val atomic_min : int Atomic.t -> int -> unit
(** CAS-loop minimum: publish a solution cost into an incumbent bound.
    Used by the portfolio layer to let heuristic arms warm the exact
    search. *)

val now_s : unit -> float
(** Seconds on a monotonic wall clock: the time base of [deadline]s.
    Process CPU time ([Sys.time]) would not do, since it sums over domains
    and would expire a budget up to N× early with N domains. *)

val solve_exact_par :
  ?domains:int ->
  ?incumbent:int Atomic.t ->
  ?deadline:float ->
  ?warm:bool ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  roots:int list ->
  Types.solution option
(** Shared-incumbent branch-and-bound over the same search space as
    {!solve_exact}: root 0's choices become independent prefix subtrees
    fanned out over up to [domains] domains
    (default {!Quilt_util.Pool.default_domains}); workers read an [Atomic]
    incumbent for pruning and CAS-update it on improvement.  Tie-breaking is
    deterministic — the lexicographically first optimal assignment in
    sorted-choice order wins, exactly as in {!solve_exact}, never the first
    finisher — so with the default fresh incumbent the result is
    bit-identical to {!solve_exact} (qcheck-pinned in the test suite).

    This entry point also prepares its per-root choice lists with a pruned
    lattice walk instead of {!solve_exact}'s full 2^(k-1) absorb-mask
    enumeration: subtrees whose absorb set already breaches the resource
    limits are cut (demand is monotone in the member set), resource totals
    are maintained incrementally along the walk, and roots that no peer
    closure can ever call are excluded up front via a least fixed point of
    the "has a caller among connectable closures" relation.  The walk
    visits the surviving masks in the same ascending order as the
    enumeration and emits the identical choice list, so the search —
    and hence the returned solution — is unchanged; on resource-tight
    instances preparation is the dominant cost and this is where the
    parallel path's speedup comes from even on a single core.

    [warm] (default [true]) seeds the incumbent with the {!solve_greedy}
    cost for the same roots before searching (heuristic-warmed pruning);
    since the greedy solution lives inside the exact search space, its cost
    bounds the optimum from above and cannot perturb the result.

    When [incumbent] is supplied, costs found by other solver arms prune
    this search too; solutions costing {e more} than the incumbent's value
    may then be reported as [None].  [deadline] (an absolute {!now_s}
    time) makes workers stop expanding once the clock passes it and
    report their best-so-far — an explicitly {e non-deterministic} budget
    mode used only by the opt-in portfolio time budget.  Raises
    [Invalid_argument] on the same
    {!exact_max_roots}/{!exact_max_root_edges} caps as {!solve_exact}.
    Under [QUILT_SEQUENTIAL=1] this is exactly {!solve_exact} (incumbent,
    deadline and warm start ignored). *)

val bounded_search_count : unit -> int
(** Number of incumbent-driven (parallel-capable) exact searches run by this
    process.  Under [QUILT_SEQUENTIAL=1] the counter must not advance; the
    test suite enforces this. *)

val solve_greedy :
  Quilt_dag.Callgraph.t -> Types.limits -> roots:int list -> Types.solution option
(** Hill-climbing joint assignment for large instances: start every subgraph
    at its minimal membership and repeatedly apply the absorb move that
    reduces the joint cost the most while remaining feasible.  Candidate
    moves are scored by delta-updating cached per-subgraph resource totals
    and root-edge cut sets, so a round costs O(k² · (deg + cut-edges))
    instead of O(k² · k·|E|). *)

val solve :
  ?domains:int ->
  ?incumbent:int Atomic.t ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  roots:int list ->
  Types.solution option
(** {!solve_exact} when the instance is within {!exact_max_roots} and
    {!exact_max_root_edges}, otherwise {!solve_greedy}.  With [domains > 1]
    (and a large enough instance) or an [incumbent], in-cap instances go
    through {!solve_exact_par} instead — same result, see there.  [domains]
    defaults to [1]: inner sweep layers stay sequential unless a caller
    opts in. *)
