module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Builder = Quilt_tracing.Builder
module Callgraph = Quilt_dag.Callgraph
module Drift = Quilt_dag.Drift
module Decision = Quilt_cluster.Decision
module Types = Quilt_cluster.Types
module Workflow = Quilt_apps.Workflow
module Sizes = Quilt_merge.Sizes
module Pipeline = Quilt_merge.Pipeline

type t = {
  workflow : Workflow.t;
  callgraph : Callgraph.t;
  solution : Types.solution;
  deployments : Deploy.merged_deployment list;
}

let fresh_platform ?(seed = 7) ?(config = Config.default) ~workflows () =
  let registry = Workflow.registry workflows in
  let engine = Engine.create ~seed ~registry () in
  List.iter (fun wf -> Deploy.deploy_baseline engine config wf) workflows;
  engine

(* Traces do not carry the developers' opt-in bit (§1.1); attach it from
   the uploaded functions. *)
let with_optin (wf : Workflow.t) g =
  let can_merge name =
    match Workflow.lookup wf name with
    | fn -> fn.Quilt_lang.Ast.mergeable
    | exception Not_found -> true
  in
  Callgraph.with_mergeable g can_merge

let profile (cfg : Config.t) ~workflows (wf : Workflow.t) =
  let engine = fresh_platform ~seed:cfg.Config.seed ~config:cfg ~workflows () in
  Engine.set_profiling engine true;
  let _ =
    Loadgen.run_closed_loop engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req
      ~connections:cfg.Config.profile_connections ~duration_us:cfg.Config.profile_duration_us
      ~warmup_us:(cfg.Config.profile_duration_us *. 0.15)
      ()
  in
  match Builder.build (Engine.tracing engine) ~entry:wf.Workflow.entry () with
  | Error e -> Error e
  | Ok g ->
      let g = Builder.known_calls ~code_edges:wf.Workflow.code_edges g in
      Ok (with_optin wf g)

(* The unmerged deployment as an explicit candidate: every vertex its own
   (singleton) fault domain, cost = Σ edge weights.  With a reliability
   penalty in play the optimizer must be allowed to conclude that not
   merging at all is the best trade. *)
let singleton_solution (g : Callgraph.t) =
  let n = Callgraph.n_nodes g in
  let roots =
    g.Callgraph.root
    :: List.filter (fun i -> i <> g.Callgraph.root) (List.init n (fun i -> i))
  in
  let subgraphs =
    List.map
      (fun r ->
        let members = Array.make n false in
        members.(r) <- true;
        let cpu, mem_mb = Quilt_cluster.Closure.resources g ~members ~root:r in
        { Types.root = r; absorbed = [ r ]; members; cpu; mem_mb })
      roots
  in
  {
    Types.roots;
    subgraphs;
    cost = Quilt_cluster.Metrics.baseline_cost g;
  }

(* Reliability-aware selection (λ > 0): gather groupings from several
   algorithms plus the singleton baseline and take the argmin of
   [cost + λ × expected replay work] instead of trusting one solver's
   cost-only answer. *)
let solve_with_penalty (cfg : Config.t) callgraph limits =
  let lambda = cfg.Config.reliability_lambda in
  let primary = Decision.auto ~seed:cfg.Config.seed callgraph limits in
  if lambda <= 0.0 then primary
  else begin
    let extra =
      List.filter_map
        (fun alg -> Decision.solve ~seed:cfg.Config.seed alg callgraph limits)
        [ Decision.Weighted_degree; Decision.Dih ]
    in
    let baseline =
      let s = singleton_solution callgraph in
      match Quilt_cluster.Metrics.solution_valid callgraph limits s with
      | Ok () -> [ s ]
      | Error _ -> []
    in
    let candidates = Option.to_list primary @ extra @ baseline in
    let score = Quilt_cluster.Metrics.reliability_score ~lambda callgraph in
    match candidates with
    | [] -> None
    | first :: rest ->
        Some
          (List.fold_left
             (fun best s -> if score s < score best then s else best)
             first rest)
  end

(* Turn a validated solution into a deployable plan: one merged spec per
   multi-member subgraph (singletons stay on their baseline containers). *)
let plan_of_solution (cfg : Config.t) (wf : Workflow.t) ~callgraph (solution : Types.solution) =
  let deployments =
    List.filter_map
      (fun (sg : Types.subgraph) ->
        let n_members = Array.fold_left (fun a b -> if b then a + 1 else a) 0 sg.Types.members in
        if n_members < 2 then None
        else Some (Deploy.merged_spec cfg wf ~graph:callgraph ~subgraph:sg))
      solution.Types.subgraphs
  in
  { workflow = wf; callgraph; solution; deployments }

let optimize ?graph (cfg : Config.t) ~workflows (wf : Workflow.t) =
  let graph_result =
    match graph with Some g -> Ok g | None -> profile cfg ~workflows wf
  in
  match graph_result with
  | Error e -> Error (Printf.sprintf "profiling failed: %s" e)
  | Ok callgraph -> (
      let limits = Config.limits cfg in
      match solve_with_penalty cfg callgraph limits with
      | None -> Error "no feasible grouping under the resource constraints"
      | Some solution -> Ok (plan_of_solution cfg wf ~callgraph solution))

let apply engine (t : t) =
  (* §5.5: the previous functions keep serving until each merged container
     is up; then the route flips seamlessly. *)
  List.iter (fun (d : Deploy.merged_deployment) -> Engine.deploy_rolling engine d.Deploy.spec)
    t.deployments

let rollback engine cfg (t : t) =
  List.iter
    (fun (d : Deploy.merged_deployment) ->
      let fn = Workflow.lookup t.workflow d.Deploy.root in
      Engine.deploy engine (Deploy.baseline_spec cfg fn))
    t.deployments

type reconsideration =
  | Keep of Drift.report
  | Remerge of t * Drift.report
  | Rollback_advised of string

let reconsider (cfg : Config.t) ~workflows (t : t) =
  (* Pick up the (possibly updated) workflow by name. *)
  let wf =
    match List.find_opt (fun w -> w.Workflow.wf_name = t.workflow.Workflow.wf_name) workflows with
    | Some w -> w
    | None -> t.workflow
  in
  match profile cfg ~workflows wf with
  | Error e -> Rollback_advised (Printf.sprintf "re-profiling failed: %s" e)
  | Ok fresh ->
      let report = Drift.detect t.callgraph fresh in
      if not (Drift.drifted report) then Keep report
      else begin
        match optimize ~graph:fresh cfg ~workflows wf with
        | Ok t' -> Remerge (t', report)
        | Error e -> Rollback_advised e
      end

let describe (t : t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "workflow %s: %d functions, cut cost %d (baseline %d)\n" t.workflow.Workflow.wf_name
       (Callgraph.n_nodes t.callgraph) t.solution.Types.cost
       (Quilt_cluster.Metrics.baseline_cost t.callgraph));
  List.iter
    (fun (d : Deploy.merged_deployment) ->
      Buffer.add_string buf
        (Printf.sprintf "  merged [%s] <- {%s}: binary %.2f MB, langs %s\n" d.Deploy.root
           (String.concat ", " d.Deploy.members)
           (Sizes.binary_size_mb d.Deploy.report.Pipeline.merged_module)
           (String.concat "," d.Deploy.report.Pipeline.languages)))
    t.deployments;
  Buffer.contents buf
