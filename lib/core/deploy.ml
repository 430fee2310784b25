module Ast = Quilt_lang.Ast
module Frontend = Quilt_lang.Frontend
module Engine = Quilt_platform.Engine
module Pipeline = Quilt_merge.Pipeline
module Sizes = Quilt_merge.Sizes
module Callgraph = Quilt_dag.Callgraph
module Workflow = Quilt_apps.Workflow

(* Resident base memory of one process: runtime arenas + mapped binary. *)
let resident_mem_mb ~binary_mb = 6.0 +. (binary_mb *. 1.2)

let baseline_spec (cfg : Config.t) (fn : Ast.fn) =
  let m = Frontend.compile fn in
  let binary = Sizes.binary_size_mb m in
  {
    Engine.service = fn.Ast.fn_name;
    vcpus = cfg.Config.vcpus;
    mem_limit_mb = cfg.Config.mem_limit_mb;
    base_mem_mb = resident_mem_mb ~binary_mb:binary;
    image_mb = Sizes.container_image_mb m;
    max_scale = cfg.Config.max_scale;
    eager_http = true;
    mode = Engine.Plain;
  }

let deploy_baseline engine cfg (wf : Workflow.t) =
  List.iter (fun fn -> Engine.deploy engine (baseline_spec cfg fn)) wf.Workflow.functions

let cm_spec ?mem_limit_mb (cfg : Config.t) (wf : Workflow.t) =
  let members = Workflow.fn_names wf in
  let base_of = Hashtbl.create 8 in
  List.iter
    (fun fn ->
      let m = Frontend.compile fn in
      Hashtbl.replace base_of fn.Ast.fn_name (resident_mem_mb ~binary_mb:(Sizes.binary_size_mb m)))
    wf.Workflow.functions;
  let image =
    List.fold_left
      (fun acc fn -> acc +. Sizes.binary_size_mb (Frontend.compile fn))
      24.0 wf.Workflow.functions
  in
  let prm = Quilt_platform.Params.default in
  {
    Engine.service = wf.Workflow.entry;
    vcpus = cfg.Config.vcpus;
    mem_limit_mb = (match mem_limit_mb with Some m -> m | None -> cfg.Config.mem_limit_mb);
    base_mem_mb = prm.Quilt_platform.Params.cm_gateway_mem_mb;
    image_mb = image;
    max_scale = cfg.Config.max_scale * List.length members;
    eager_http = true;
    mode =
      Engine.Container_merge
        {
          members;
          member_base_mem =
            (fun fn -> match Hashtbl.find_opt base_of fn with Some b -> b | None -> 8.0);
        };
  }

let deploy_cm ?mem_limit_mb engine cfg (wf : Workflow.t) =
  Engine.deploy engine (cm_spec ?mem_limit_mb cfg wf)

type merged_deployment = {
  spec : Engine.spec;
  report : Pipeline.report;
  members : string list;
  root : string;
}

let merged_spec (cfg : Config.t) (wf : Workflow.t) ~(graph : Callgraph.t)
    ~(subgraph : Quilt_cluster.Types.subgraph) =
  let root_name = (Callgraph.node graph subgraph.Quilt_cluster.Types.root).Callgraph.name in
  let members = ref [] in
  Array.iteri
    (fun i b -> if b then members := (Callgraph.node graph i).Callgraph.name :: !members)
    subgraph.Quilt_cluster.Types.members;
  let members = List.rev !members in
  (* §5.6: guard each member pair whose first profiled edge has α > 1. *)
  let guards =
    match cfg.Config.guard_policy with
    | Config.Never -> []
    | Config.Data_dependent ->
        let name i = (Callgraph.node graph i).Callgraph.name in
        Pipeline.canonical_guards ~members
          (List.map
             (fun (e : Callgraph.edge) ->
               ((name e.Callgraph.src, name e.Callgraph.dst), Callgraph.alpha graph e))
             graph.Callgraph.edges)
        |> List.filter (fun (_, alpha) -> alpha > 1)
  in
  let report =
    Pipeline.merge_group
      ~lookup:(fun svc -> Workflow.lookup wf svc)
      ~members ~root:root_name ~guards ()
  in
  let m = report.Pipeline.merged_module in
  let binary = Sizes.binary_size_mb m in
  let spec =
    {
      Engine.service = root_name;
      vcpus = cfg.Config.vcpus;
      mem_limit_mb = cfg.Config.mem_limit_mb;
      base_mem_mb = resident_mem_mb ~binary_mb:binary;
      image_mb = Sizes.container_image_mb m;
      (* Experiment 1 gives Quilt the same total resources as the baseline:
         max-scale per function, summed over the merged members. *)
      max_scale = cfg.Config.max_scale * List.length members;
      (* DelayHTTP runs on every merged module. *)
      eager_http = false;
      mode = Engine.Merged { members; guards };
    }
  in
  { spec; report; members; root = root_name }
