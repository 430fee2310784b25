(* Prints the merged module of every bundled workflow — every name `quilt
   list` prints, built once synchronously and once with `--async` — under
   the three pipeline variants the incremental-verification test replays:
   the default pipeline, [Guarded 2] edges with billing instrumentation,
   and [~optimize:false].  Each module is preceded by its merge rounds and
   the number of symbols the pipeline stripped.  `dune runtest` diffs the
   output against `merged_modules.expected`: a change to when or how the
   pipeline runs its passes must leave every merged module byte-identical
   unless the change means to alter what gets deployed. *)

module Pipeline = Quilt_merge.Pipeline
module Workflow = Quilt_apps.Workflow

(* The same list, in the same order, as `quilt list`. *)
let workflows ~async =
  Quilt_apps.Deathstar.all ~async ()
  @ Quilt_apps.Special.
      [
        modified_nearby_cinema ();
        noop ();
        cross_language ();
        fan_out ~callee_mem_mb:14 ();
        routed ();
      ]

let variants =
  [
    ("default", None, None, None);
    ("guarded+billing", Some (fun ~caller:_ ~callee:_ -> Pipeline.Guarded 2), Some true, None);
    ("unoptimized", None, None, Some false);
  ]

(* An async build whose module text equals the sync build's prints a
   one-line note instead of the text again. *)
let () =
  let sync_text = Hashtbl.create 64 in
  List.iter
    (fun async ->
      List.iter
        (fun (wf : Workflow.t) ->
          List.iter
            (fun (variant, edge_mode, billing, optimize) ->
              let report =
                Pipeline.merge_group_uncached ~lookup:(Workflow.lookup wf)
                  ~members:(Workflow.fn_names wf) ~root:wf.Workflow.entry ?edge_mode ?billing
                  ?optimize ()
              in
              Printf.printf "=== %s%s (%s): removed_symbols=%d rounds=[%s]\n" wf.Workflow.wf_name
                (if async then " --async" else "")
                variant report.Pipeline.removed_symbols
                (String.concat "; "
                   (List.map (fun (c, n) -> Printf.sprintf "%s:%d" c n) report.Pipeline.rounds));
              let text = Quilt_ir.Pp.to_string report.Pipeline.merged_module in
              let key = (wf.Workflow.wf_name, variant) in
              if async && Hashtbl.find_opt sync_text key = Some text then
                print_string "(module text identical to the sync build)\n"
              else print_string text;
              if not async then Hashtbl.replace sync_text key text)
            variants)
        (workflows ~async))
    [ false; true ]
