(** Call-graph construction from a profiling window (§3, Figure 3).

    Counts caller→callee pairs among the spans, takes N = number of
    client→entry spans, and labels vertices with resources aggregated over
    every container of the function: average CPU per invocation and peak
    memory.  An edge observed with both kinds is counted as asynchronous
    (the conservative choice for the memory constraint). *)

val build :
  Trace.store ->
  entry:string ->
  ?window_start:float ->
  unit ->
  (Quilt_dag.Callgraph.t, string) result
(** [Error] when the window contains no invocation of [entry] or the
    observed edges do not form a connected rooted DAG (e.g. the window
    mixes workflows).

    Cost O(spans + samples), plus a sort of the distinct edges: one pass
    over the window's spans interns names (entry first, then in order of
    first appearance) and counts edges under integer keys; one pass over
    each function's resource samples folds them per container. *)

val known_calls :
  code_edges:(string * string * Quilt_dag.Callgraph.call_kind) list ->
  Quilt_dag.Callgraph.t ->
  Quilt_dag.Callgraph.t
(** Adds the statically-known edges missing from the profile (the dashed
    arrows of Figure 3) with weight 0 — profiling is not perfect because
    some code paths are data-dependent. *)
