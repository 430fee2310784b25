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
    against the generic solver and against a full absorb-set enumeration in
    the test suite).

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
    {!solve_greedy} above it.  [Decision.auto]'s size-based dispatch keeps
    the [Optimal] sweep below it too, so no caller reaches the exact search
    past the boundary.  Shared so the dispatchers and the solver can never
    disagree about it. *)

val exact_max_root_edges : int
(** Largest number of root-targeted edges the exact solver accepts (its cut
    masks live in one [int]); a dispatch boundary exactly like
    {!exact_max_roots}, enforced by {!solve}. *)

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
  ?incumbent:int ref ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  roots:int list ->
  Types.solution option
(** Optimal subgraph construction for the given roots, or [None] when
    infeasible.  The root list must contain the graph root; duplicates are
    ignored.

    Preparation lists each root's feasible absorb sets with a pruned
    lattice walk: subtrees whose absorb set already breaches the resource
    limits are cut (demand is monotone in the member set), resource totals
    are maintained incrementally, and roots no peer closure can ever call
    are skipped up front.  A depth-first branch-and-bound then picks one
    choice per root, choices ordered by the weight they cut on their own;
    ties go to the first cost-optimal assignment in that order, so the
    result is deterministic.

    [incumbent] (default a fresh [ref max_int]) is an extra inclusive bound
    shared across searches: it is lowered to every cost found, and a search
    whose optimum costs {e more} than it returns [None].  A root-set sweep
    threads one incumbent through all its searches this way; since it only
    prunes assignments that could not strictly improve on a cost already
    found, the sweep's result is unchanged.

    Raises [Invalid_argument] when the instance breaches either cap: more
    than {!exact_max_roots} roots (after normalization, i.e. including
    forced roots), or more than {!exact_max_root_edges} root-targeted
    edges — use {!solve_greedy} there. *)

val bounded_search_count : unit -> int
(** Number of exact branch-and-bound searches this process has run: one per
    {!solve_exact} call (direct or through {!solve}) whose preparation left
    every root a feasible choice. *)

val solve_greedy :
  Quilt_dag.Callgraph.t -> Types.limits -> roots:int list -> Types.solution option
(** Hill-climbing joint assignment for large instances: start every subgraph
    at its minimal membership and repeatedly apply the absorb move that
    reduces the joint cost the most while remaining feasible.  Candidate
    moves are scored by delta-updating cached per-subgraph resource totals
    and root-edge cut sets, so a round costs O(k² · (deg + cut-edges))
    instead of O(k² · k·|E|). *)

val solve :
  ?incumbent:int ref ->
  Quilt_dag.Callgraph.t ->
  Types.limits ->
  roots:int list ->
  Types.solution option
(** {!solve_exact} (with [incumbent]) when the instance is within
    {!exact_max_roots} and {!exact_max_root_edges}, otherwise
    {!solve_greedy}, which ignores [incumbent]. *)
