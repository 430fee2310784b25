type guard_policy = Never | Data_dependent

type t = {
  vcpus : float;
  mem_limit_mb : float;
  max_scale : int;
  cpu_budget_ms : float;
  mem_overhead_mb : float;
  guard_policy : guard_policy;
  profile_duration_us : float;
  profile_connections : int;
  seed : int;
  reliability_lambda : float;
  domains : int;
}

let default =
  {
    vcpus = 2.0;
    mem_limit_mb = 128.0;
    max_scale = 10;
    cpu_budget_ms = 1500.0;
    mem_overhead_mb = 16.0;
    guard_policy = Data_dependent;
    profile_duration_us = 30_000_000.0;
    profile_connections = 4;
    seed = 1;
    reliability_lambda = 0.0;
    domains = 1;
  }

let limits cfg =
  {
    Quilt_cluster.Types.max_cpu = cfg.vcpus *. cfg.cpu_budget_ms;
    max_mem_mb = cfg.mem_limit_mb -. cfg.mem_overhead_mb;
  }
