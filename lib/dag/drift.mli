(** Drift between two call graphs of the same workflow (§1.1, §8).

    One definition shared by the one-shot reconsideration path
    ([Quilt.reconsider]) and the online control plane ([Quilt_control]):
    a {!report} names exactly which vertices/edges moved and by how much,
    so operators can see {e why} a re-merge was (or was not) triggered.

    Four families of drift are detected, mirroring what invalidates a
    merge decision:

    - {b topology}: functions or call edges appearing/disappearing;
    - {b call-rate}: the per-workflow-invocation rate w/N of an edge
      shifting by more than [threshold] (relative) — this is what a
      hot-path flip looks like, even when the integer α = ⌈w/N⌉ is
      unchanged;
    - {b α}: the integer per-request budget of §5.6 changing (loops and
      data-dependent fan-out);
    - {b resources}: per-function CPU or peak memory moving by more than
      [threshold] (relative), or the developer's opt-in bit flipping. *)

type rate_shift = {
  rs_src : string;
  rs_dst : string;
  rate_old : float;  (** w/N in the old graph. *)
  rate_new : float;
  rs_rel : float;  (** Relative change, |new−old| / old (|new| when old = 0). *)
}

type alpha_shift = { as_src : string; as_dst : string; alpha_old : int; alpha_new : int }

type resource_shift = {
  fn : string;
  cpu_old : float;
  cpu_new : float;
  mem_old : float;
  mem_new : float;
  rel_cpu : float;
  rel_mem : float;
}

type report = {
  threshold : float;  (** The relative threshold the report was built with. *)
  added_nodes : string list;
  removed_nodes : string list;
  added_edges : (string * string) list;
  removed_edges : (string * string) list;
  rate_shifts : rate_shift list;  (** Only shifts beyond [threshold]. *)
  alpha_shifts : alpha_shift list;  (** Every α change (α is already quantized). *)
  resource_shifts : resource_shift list;  (** Only shifts beyond [threshold]. *)
  optin_flips : string list;  (** Functions whose mergeable bit changed. *)
}

val detect : ?threshold:float -> Callgraph.t -> Callgraph.t -> report
(** [detect old_g new_g] compares by function name; [threshold] (relative,
    default 0.3) gates the rate and resource families. *)

val drifted : report -> bool
(** Any family non-empty. *)

val topology_changed : report -> bool

val describe : report -> string
(** One line per finding; ["no drift"] when empty. *)

