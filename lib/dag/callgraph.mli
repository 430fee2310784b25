(** Workflow call graphs (§3–§4).

    A call graph is a connected rooted DAG: vertices are serverless functions
    labelled with profiled resources (peak memory [mem_mb], average CPU
    [cpu]); directed edges are caller→callee relationships labelled with the
    profiled invocation count [weight] and the call kind (synchronous or
    asynchronous).  [invocations] is N, the number of workflow invocations in
    the profiling window; {!alpha} is the normalized per-workflow edge weight
    ⌈w/N⌉ from §4.1.

    Successor/predecessor adjacency is precomputed once in {!make}, so every
    neighbourhood query is an O(degree) array read; reachability sets are
    word-packed {!Quilt_util.Bitset}s. *)

type call_kind = Sync | Async

type node = {
  id : int;  (** Dense index into {!field-nodes}. *)
  name : string;
  mem_mb : float;  (** Peak memory per instance, m_i. *)
  cpu : float;  (** Average CPU per invocation, c_i (vCPU·ms). *)
  mergeable : bool;
      (** The developer's opt-in bit (§1.1): false pins the function to its
          own container — the decision algorithms force it to be a singleton
          group. *)
}

type edge = {
  src : int;
  dst : int;
  weight : int;  (** Profiled invocation count w_{i,j} over the window. *)
  kind : call_kind;
}

type t = {
  nodes : node array;
  edges : edge list;
  root : int;
  invocations : int;  (** N: workflow invocations in the profiling window. *)
  succ_adj : edge array array;
      (** Outgoing edges per vertex, in original edge-list order.  Built by
          {!make}; treat as read-only. *)
  pred_adj : edge array array;  (** Incoming edges per vertex; same contract. *)
}

val make :
  nodes:node array -> edges:edge list -> root:int -> invocations:int -> t
(** Builds and validates a call graph (and its adjacency index).  Raises
    [Invalid_argument] if ids are not dense, the graph has a cycle, an edge
    endpoint is out of range, or some node is unreachable from [root]. *)

val alpha : t -> edge -> int
(** ⌈w_{i,j} / N⌉, at least 1. *)

val n_nodes : t -> int
val node : t -> int -> node
val find_node : t -> string -> node option

val succs : t -> int -> edge list
(** Outgoing edges of a vertex, O(out-degree).  Allocates a fresh list; hot
    paths should use {!out_edges} or {!iter_succs} instead. *)

val preds : t -> int -> edge list
(** Incoming edges of a vertex, O(in-degree); see {!succs}. *)

val out_edges : t -> int -> edge array
(** The vertex's outgoing-edge array itself — no allocation.  Read-only. *)

val in_edges : t -> int -> edge array
(** The vertex's incoming-edge array itself — no allocation.  Read-only. *)

val iter_succs : t -> int -> (edge -> unit) -> unit

val topo_order : t -> int list
(** Vertices in topological order (root first). *)

val reachable_from : t -> int -> Quilt_util.Bitset.t
(** Vertices reachable from the given vertex (inclusive), as a bitset. *)

val descendant_sets : t -> Quilt_util.Bitset.t array
(** [descendant_sets g] is an array [d] where [Bitset.mem d.(i) j] is true
    iff [j] is reachable from [i] (including [i] itself).  Computed with
    memoization in reverse topological order as Appendix C.3 prescribes,
    with word-level unions. *)

val weighted_in_degree : t -> int -> float
(** Σ of weights of incoming edges (W_in in Appendix C.1). *)

val with_mergeable : t -> (string -> bool) -> t
(** Re-labels the opt-in bit by function name (used after profiling, since
    traces do not carry it). *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable rendering. *)

val to_dot : t -> string
(** Graphviz rendering, for inspection. *)
