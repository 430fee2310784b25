(** Special-purpose workloads of the evaluation.

    - {!modified_nearby_cinema}: Experiment 3's CPU-heavy 9-function
      workflow: six get-nearby-points clones each filtering 300K points,
      two aggregators combining three each, and the original entry.
    - {!noop}: the empty function of Experiment 4 (profiling cost).
    - {!fan_out}: §5.6 / Figure 10's data-dependent fan-out whose callee is
      memory-intensive; the request's ["num"] field selects the fan-out.
    - {!cross_language}: a five-language workflow for the cross-language
      merging demonstrations. *)

val modified_nearby_cinema : unit -> Workflow.t

val noop : unit -> Workflow.t

val fan_out : callee_mem_mb:int -> unit -> Workflow.t
(** Request format [{"num": k}]: the entry invokes [fan-out-worker]
    asynchronously [k] times; each worker instance holds [callee_mem_mb]. *)

val routed : unit -> Workflow.t
(** The adaptive scenario's workload: entry [route-split] forwards each
    request down chain A ([route-a1] → [route-a2]) when the request's
    ["route"] field is 0, chain B otherwise.  Chains are sized so the
    entry plus one chain fits a default container but entry plus both
    does not; shifting the A/B mix flips the optimal merge. *)

val routed_req : b_share:float -> Quilt_util.Rng.t -> string
(** Request generator with a given probability of taking chain B. *)

val cross_language : unit -> Workflow.t
(** A chain c → cpp → rust → go → swift. *)
