(** Pre-computed execution trees.

    Application functions are deterministic given their inputs, so a
    request's entire call tree — every function's phases, invocation
    payloads and responses — can be computed up front with the reference
    evaluator and then {e replayed} by the engine with proper timing,
    concurrency and resource semantics.  This keeps the discrete-event
    engine independent of the language machinery. *)

type node = {
  fn : string;
  req : string;
  res : string;
  phases : phase list;
  own_cpu_us : float;  (** Σ of this node's own Compute phases. *)
  own_mem_mb : float;  (** Σ of this node's own Mem phases. *)
}

and phase =
  | Compute of float  (** µs of CPU demand. *)
  | Io of float  (** µs of pure waiting (the hardcoded-DB sleeps). *)
  | Mem of float  (** MB of workspace, held until the node finishes. *)
  | Call of { kind : Quilt_tracing.Trace.call_kind; future : int option; child : node }
      (** [future = None] for synchronous calls. *)
  | Join of int

type registry = string -> Quilt_lang.Ast.fn
(** Resolves a service name; raises [Not_found] for unknown services. *)

val build : registry -> entry:string -> req:string -> node
(** Recursively evaluates the workflow. *)

val response : node -> string

val total_cpu_us : node -> float
(** Σ Compute over the whole tree. *)

val functions : node -> string list
(** Distinct function names in the tree. *)
