(** Low-overhead span recorder — the observability layer's ingest.

    A structure-of-arrays ring buffer of completed-invocation records fed
    by {!Quilt_platform.Engine.span_sink}: one unboxed float/int column per
    field, function names interned to small ids, a flags byte per record.
    Recording a span is a handful of array stores — no allocation on the
    hot path once the name is interned — and the ring overwrites its
    oldest records when full, so a recorder never grows past its capacity.

    Head sampling is deterministic: the verdict for a root request id is a
    pure hash of [(seed, rid)], so equal seeds over equal traffic produce
    identical span streams (the property the qcheck pins in [test_obs]).
    Sampling 1/N keeps roughly one in [sample_period] root requests, and
    the whole call chain of a sampled request — remote hops, in-process
    member calls, CM calls — is recorded; unsampled requests touch nothing
    but one counter. *)

type span = {
  sp_rid : int;  (** Root request id; shared by every span of one chain. *)
  sp_fn : string;
  sp_caller : string option;  (** [None] at the client ingress. *)
  sp_cid : int;  (** Container id. *)
  sp_node : int;  (** Worker node (0 when the topology is flat). *)
  sp_send : float;  (** Caller issued the hop (µs). *)
  sp_enq : float;  (** Controller received it. *)
  sp_start : float;  (** Handler began executing. *)
  sp_end : float;  (** Completion. *)
  sp_cpu_us : float;  (** Modeled per-invocation CPU demand. *)
  sp_mem_mb : float;  (** Modeled per-invocation footprint. *)
  sp_async : bool;
  sp_local : bool;  (** In-process or CM member call (no network hop). *)
  sp_ok : bool;
}

val queue_us : span -> float
(** Time spent waiting for a container slot ([sp_start - sp_enq]). *)

val hop_us : span -> float
(** Request-leg network time ([sp_enq - sp_send]); 0 for local spans. *)

type t

val create : ?capacity:int -> ?sample_period:int -> ?seed:int -> unit -> t
(** [capacity] (default 2^18 spans, rounded up to a power of two) bounds
    the ring; [sample_period] (default 1: record everything) keeps ~1/N of
    root requests; [seed] (default 0) perturbs the sampling hash. *)

val sample_period : t -> int

val sink : t -> Quilt_platform.Engine.span_sink

val attach : t -> Quilt_platform.Engine.t -> unit
(** [attach t engine] installs {!sink} on the engine.  One recorder can
    observe at most one engine at a time meaningfully (container and
    request ids would collide otherwise). *)

val detach : Quilt_platform.Engine.t -> unit
(** Removes any installed sink, restoring the no-op fast path. *)

(** {1 Reading back} *)

val length : t -> int
(** Spans currently retained. *)

val recorded : t -> int
(** Spans ever recorded (monotone; [recorded - length] were overwritten). *)

val dropped : t -> int

val seen_roots : t -> int
(** Root requests the sampler was consulted for. *)

val sampled_roots : t -> int
(** Root requests whose chains were recorded. *)

val get : t -> int -> span
(** [get t i] is the i-th oldest retained span ([0 <= i < length t]).
    Spans are stored in completion order, so the sequence is sorted by
    [sp_end]. *)

val iter : ?since:float -> t -> (span -> unit) -> unit
(** Oldest to newest; [since] keeps spans with [sp_end >= since]. *)

val to_list : ?since:float -> t -> span list
