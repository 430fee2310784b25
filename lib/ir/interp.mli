(** The QVM's shared native runtime.

    Everything executing QIR needs besides its control state (locals,
    labels, fuel): the per-request runtime core {!rctx}, the intrinsic
    implementations, the arithmetic and the trap vocabulary.  {!Compile}
    interns intrinsics here, {!Vm} executes on this runtime, and
    {!Pass_sccp} folds constants by the same arithmetic minus its trapping
    cases.  The tree-walking oracle the QVM is differentially checked
    against lives in [test/treewalk.ml] and runs on this same runtime.

    The embedder supplies a {!host} whose [invoke] implements what the
    serverless platform would do with a remote invocation (route it to some
    other function).  Work-model intrinsics ([quilt_burn_cpu] etc.) are
    accumulated in {!stats} rather than actually burning time. *)

exception Trap of string

type stats = {
  mutable steps : int;  (** Instructions executed. *)
  mutable cpu_us : float;  (** Σ of [quilt_burn_cpu]. *)
  mutable io_us : float;  (** Σ of [quilt_sleep_io]. *)
  mutable peak_mem_mb : float;  (** Max of [quilt_use_mem]. *)
  mutable remote_sync : (string * string) list;  (** (callee, request), reverse order. *)
  mutable remote_async : (string * string) list;
  mutable curl_loaded : bool;  (** Did the HTTP stack get initialised? *)
  mutable curl_loaded_eagerly : bool;  (** ... by the eager pre-main path? *)
  calls : (string, int) Hashtbl.t;  (** Per-callee counts of direct IR calls. *)
  billing : (string, int) Hashtbl.t;
      (** Per-original-function execution counts from {!Pass_billing}'s
          instrumentation (§8). *)
}

type host = { invoke : kind:[ `Sync | `Async ] -> name:string -> req:string -> string }

val null_host : host
(** A host whose remote invocations trap; for merged modules expected to run
    fully locally. *)

val echo_host : host
(** Responds to any invocation with [{"echo":<callee>,"req":<req>}];
    handy in unit tests. *)

type value = VInt of int64 | VFloat of float

val as_int : value -> int64
(** Traps ("expected integer value") on floats. *)

val as_float : value -> float
(** Traps ("expected float value") on integers. *)

type rctx = {
  mem : Abi.Mem.t;
  stats : stats;
  host : host;
  mutable req_ptr : int64;
  mutable response : string option;
  json_cache : (string, Quilt_util.Json.t * bool) Hashtbl.t;
      (** Content-keyed parse memo for the json natives; the bool marks
          strings that are the canonical printing of their value. *)
}
(** The per-request runtime core an engine mutates; locals and fuel are
    engine-private. *)

val make_rctx : ?mem:Abi.Mem.t -> host:host -> unit -> rctx
(** [?mem] supplies a pre-populated heap (e.g. {!Abi.Mem.restore} of a
    globals snapshot) instead of a fresh empty one. *)

type shared_op
type lang_op

type intrinsic =
  | Sh of shared_op
  | Ln of Abi.str_abi * lang_op
  | Unknown_native of string
  | Bad_native of string
(** An interned intrinsic identity: language-agnostic platform natives
    ([Sh]), per-language runtime calls with their string ABI pre-resolved
    ([Ln]), and the two failure modes kept as data so that executing them
    traps with the same message as resolving the name at call time. *)

val intern_intrinsic : string -> intrinsic
(** Total: never raises; unknown names intern to a trapping constructor. *)

val exec_intrinsic : rctx -> intrinsic -> value list -> value option
(** Runs one native call; [None] is a void return. *)

val exec_binop : Ir.binop -> Ir.ty -> value -> value -> value
val exec_icmp : Ir.cmp -> value -> value -> value

val bump_call_count : stats -> string -> unit
(** Increments [stats.calls] for one direct IR call. *)

val trap : ('a, unit, string, 'b) format4 -> 'a
(** Raises {!Trap} with a formatted message. *)
