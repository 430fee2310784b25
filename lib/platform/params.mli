(** Simulator constants, calibrated to the paper's testbed (§7.1: 1 Gbps,
    ≈200 µs RTT, Fission on K3s).  All times in µs, sizes in MB.  Every
    experiment states which fields it overrides. *)

type t = {
  (* Remote invocation path (Figure 1). *)
  serialize_us_per_kb : float;
  serialize_base_us : float;
  gateway_us : float;  (** API-gateway processing, each direction. *)
  router_us : float;  (** Controller/route lookup, request direction. *)
  rtt_us : float;  (** Network round-trip; half per direction. *)
  nginx_us : float;  (** Extra ingress hop when profiling is on (§3). *)
  (* Containers. *)
  cold_start_pull_us_per_mb : float;  (** Image fetch from remote storage. *)
  cold_start_boot_us : float;  (** Container + runtime boot. *)
  http_stack_load_us : float;  (** libcurl + ~40 shared libraries (§5.2). *)
  specialize_us : float;  (** Fission re-specialization after idling. *)
  idle_specialize_timeout_us : float;
  utilization_threshold : float;  (** Accept requests below this CPU use. *)
  max_tasks_per_container : int;
      (** Hard per-container in-flight request cap (Fission's per-pod
          concurrency); the binding constraint for baseline throughput. *)
  rpc_server_cpu_us : float;
      (** CPU a container spends receiving one invocation (HTTP parse,
          routing, deserialization). *)
  rpc_client_cpu_us : float;
      (** CPU a caller spends issuing one remote invocation
          (serialization, connection handling). *)
  cfs_big_seg_us : float;
      (** Compute bursts longer than this hit the CFS quota when the
          container's demand exceeds its vCPU limit. *)
  cfs_throttle_efficiency : float;
      (** Fraction of the quota a container actually converts to work while
          hard-oversubscribed by long bursts (CFS throttle-period stalls);
          1.0 disables the loss. *)
  (* Merged / container-merge execution. *)
  local_call_us : float;  (** A merged (in-process) invocation: ~ns. *)
  cm_call_us : float;  (** CM internal-gateway hop + process handoff. *)
  cm_gateway_mem_mb : float;  (** CM's in-container gateway footprint. *)
  (* Tracing. *)
  resource_sample_every_us : float;
}

val default : t

val remote_leg_us : ?rtt_us:float -> t -> profiled:bool -> payload:string -> float
(** One-way cost of an invocation request (client→callee or fn→fn):
    serialization + gateway + routing + half RTT (+ nginx when profiling).
    [rtt_us] substitutes a topology-derived RTT for the flat [t.rtt_us]
    (same-node / same-rack / cross-rack); omitted, the seed constant
    applies. *)

val response_leg_us : ?rtt_us:float -> t -> payload:string -> float
(** Response path: serialization + gateway + half RTT.  [rtt_us] as in
    {!remote_leg_us}. *)
