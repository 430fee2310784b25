(* Prints the profiled call graph of every bundled workflow: the output of
   the §3 profiling pass ([Quilt.profile Config.default], which runs the
   engine with the profiler on and hands its trace store to
   [Builder.build]).  Nodes in id order, edges in list order, floats at
   full precision.  `dune runtest` diffs the output against
   `profiled_graphs.expected`: the engine may change how it fills the trace
   store only if every graph stays the same, since the decision search
   visits candidates in the order these graphs give it. *)

module Workflow = Quilt_apps.Workflow
module Callgraph = Quilt_dag.Callgraph
module Quilt = Quilt_core.Quilt
module Config = Quilt_core.Config

let bundled () =
  let rename suffix (wf : Workflow.t) = { wf with Workflow.wf_name = wf.Workflow.wf_name ^ suffix } in
  Quilt_apps.Deathstar.all ~async:false ()
  @ List.map (rename "-async") (Quilt_apps.Deathstar.social_network ~async:true ())
  @ [
      Quilt_apps.Special.cross_language ();
      Quilt_apps.Special.fan_out ~callee_mem_mb:16 ();
      Quilt_apps.Special.routed ();
      Quilt_apps.Special.modified_nearby_cinema ();
    ]

let print_graph (wf : Workflow.t) (g : Callgraph.t) =
  Printf.printf "workflow %s: root %d, invocations %d\n" wf.Workflow.wf_name g.Callgraph.root
    g.Callgraph.invocations;
  Array.iter
    (fun (n : Callgraph.node) ->
      Printf.printf "  node %d %s mem_mb=%.17g cpu=%.17g mergeable=%b\n" n.Callgraph.id n.Callgraph.name
        n.Callgraph.mem_mb n.Callgraph.cpu n.Callgraph.mergeable)
    g.Callgraph.nodes;
  List.iter
    (fun (e : Callgraph.edge) ->
      Printf.printf "  edge %d -> %d weight=%d %s\n" e.Callgraph.src e.Callgraph.dst e.Callgraph.weight
        (match e.Callgraph.kind with Callgraph.Sync -> "sync" | Callgraph.Async -> "async"))
    g.Callgraph.edges

let () =
  List.iter
    (fun (wf : Workflow.t) ->
      match Quilt.profile Config.default ~workflows:[ wf ] wf with
      | Ok g -> print_graph wf g
      | Error e -> Printf.printf "workflow %s: profiling failed: %s\n" wf.Workflow.wf_name e)
    (bundled ())
