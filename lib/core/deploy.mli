(** Deployment construction: from source functions (and merge results) to
    the simulator's container specs.

    Every spec is derived from a {e real} compiled artifact: the function's
    (or merged group's) QIR module determines the binary size (Appendix E
    model), whether the HTTP stack loads eagerly (pre-DelayHTTP binaries
    do), and hence the cold-start cost. *)

val baseline_spec : Config.t -> Quilt_lang.Ast.fn -> Quilt_platform.Engine.spec
(** One function per container, Plain mode. *)

val deploy_baseline : Quilt_platform.Engine.t -> Config.t -> Quilt_apps.Workflow.t -> unit

val deploy_cm : ?mem_limit_mb:float -> Quilt_platform.Engine.t -> Config.t -> Quilt_apps.Workflow.t -> unit
(** The container-merge baseline (§7.2): all of the workflow's functions in
    one container behind an internal gateway.  The entry's handle routes to
    it. *)

type merged_deployment = {
  spec : Quilt_platform.Engine.spec;
  report : Quilt_merge.Pipeline.report;
  members : string list;
  root : string;
}

val merged_spec :
  Config.t ->
  Quilt_apps.Workflow.t ->
  graph:Quilt_dag.Callgraph.t ->
  subgraph:Quilt_cluster.Types.subgraph ->
  merged_deployment
(** Runs the real merge pipeline over the subgraph's members and derives
    the container spec (binary size, lazy HTTP, per-edge guards from the
    profiled α values per {!Config.t.guard_policy}). *)
