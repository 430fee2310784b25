(** The Quilt optimizer (§1.1): profile a workflow, decide what to merge
    under the provider's constraints, merge with the real compilation
    pipeline, and swap the deployments — transparently to the platform.

    The typical flow a provider runs in the background:

    {[
      let engine = Quilt.fresh_platform ~workflows () in
      let opt = Quilt.optimize cfg ~workflows wf in        (* profile+decide+merge *)
      Quilt.apply engine opt                               (* §5.5 function update *)
    ]}

    [optimize] spins up its own profiling run (an isolated simulation with
    baseline deployments, the profiler token on, and background load), so
    the production engine only sees the final deployment swap. *)

type t = {
  workflow : Quilt_apps.Workflow.t;
  callgraph : Quilt_dag.Callgraph.t;  (** Built from the profiling window. *)
  solution : Quilt_cluster.Types.solution;
  deployments : Deploy.merged_deployment list;
      (** One per multi-member subgraph, in solution order. *)
}

val profile :
  Config.t -> workflows:Quilt_apps.Workflow.t list -> Quilt_apps.Workflow.t ->
  (Quilt_dag.Callgraph.t, string) result
(** Runs the §3 profiling pass: baseline deployments, profiler-enabled
    token on, closed-loop background load for the configured window, then
    call-graph construction (with statically-known edges added at weight 0,
    as in Figure 3). *)

val optimize :
  ?graph:Quilt_dag.Callgraph.t ->
  Config.t ->
  workflows:Quilt_apps.Workflow.t list ->
  Quilt_apps.Workflow.t ->
  (t, string) result
(** Full pipeline.  Pass [graph] to skip profiling (e.g. in tests).
    [Error] when profiling fails or no feasible grouping exists. *)

val apply : Quilt_platform.Engine.t -> t -> unit
(** Deploys the merged functions and leaves every original function in
    place — cut edges and §5.6 overflow calls route to those (§5.5). *)

val rollback : Quilt_platform.Engine.t -> Config.t -> t -> unit
(** §8: replace each merged entry container with the original function's
    deployment. *)

val fresh_platform :
  ?seed:int ->
  ?config:Config.t ->
  workflows:Quilt_apps.Workflow.t list ->
  unit ->
  Quilt_platform.Engine.t
(** An engine with baseline deployments for every function of the given
    workflows. *)

type reconsideration =
  | Keep of Quilt_dag.Drift.report
      (** The profile is still representative; leave the merge alone.  The
          (empty) report documents what was compared. *)
  | Remerge of t * Quilt_dag.Drift.report
      (** The workload (or the functions' opt-in bits) changed enough that a
          different grouping is better; deploy the returned plan.  The report
          names exactly which edges/vertices drifted and by how much. *)
  | Rollback_advised of string
      (** No feasible grouping exists any more — replace merged entries with
          the original functions (§8). *)

val reconsider :
  Config.t ->
  workflows:Quilt_apps.Workflow.t list ->
  t ->
  reconsideration
(** Quilt "monitors its merged functions and reconsiders the merge if there
    are big workload changes, a function is updated, or its permission to be
    merged is removed" (§1.1).  Re-profiles the workflow and diffs the new
    call graph against the one the plan was built from with
    {!Quilt_dag.Drift.detect} — the same definition the online control plane
    ({!Quilt_control}) uses: topology changes, per-edge call-rate and α
    changes, resource drift beyond 30% (relative), or opt-in changes trigger a re-optimization.  The workflow is
    looked up by name in [workflows], so an updated version of the functions
    is picked up. *)

val with_optin : Quilt_apps.Workflow.t -> Quilt_dag.Callgraph.t -> Quilt_dag.Callgraph.t
(** Attaches the developers' mergeable opt-in bits (which traces do not
    carry) to a call graph built from a profiling window; functions unknown
    to the workflow default to mergeable. *)

val describe : t -> string
(** Human-readable summary: groups, costs, sizes. *)
