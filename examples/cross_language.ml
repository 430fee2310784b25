(* Merging across all five languages (§5.3, Appendix D):

   $ dune exec examples/cross_language.exe

   A chain of functions written in C, C++, Rust, Go, and Swift is merged
   into one process.  Each language has its own string ABI (C's char*,
   Rust's {ptr,len,cap}, Go's {ptr,len}, Swift's refcounted boxes); the
   pipeline bridges them with the caller2c/c2callee shims and the merged
   module computes exactly what the distributed chain computes (exits 1
   when it traps or disagrees). *)

module Ast = Quilt_lang.Ast
module Eval = Quilt_lang.Eval
module Pipeline = Quilt_merge.Pipeline
module Sizes = Quilt_merge.Sizes
module Interp = Quilt_ir.Interp
module Vm = Quilt_ir.Vm
module Ir = Quilt_ir.Ir
module Special = Quilt_apps.Special
module Workflow = Quilt_apps.Workflow

let () =
  let wf = Special.cross_language () in
  List.iter
    (fun (f : Ast.fn) -> Printf.printf "  %-10s written in %s\n" f.Ast.fn_name f.Ast.fn_lang)
    wf.Workflow.functions;

  let lookup svc = Workflow.lookup wf svc in
  let rec reference name req =
    let invoke ~kind:_ ~name ~req = fst (reference name req) in
    Eval.run ~invoke (lookup name) ~req
  in
  let req = "{\"data\":\"paper\"}" in
  let expected, _ = reference wf.Workflow.entry req in

  let report =
    Pipeline.merge_group ~lookup ~members:(Workflow.fn_names wf) ~root:wf.Workflow.entry ()
  in
  let m = report.Pipeline.merged_module in
  Printf.printf "\nmerged %d functions across languages {%s} into one module (%d IR functions, %.2f MB)\n"
    (List.length wf.Workflow.functions)
    (String.concat ", " report.Pipeline.languages)
    (List.length m.Ir.funcs) (Sizes.binary_size_mb m);

  let agreed =
    match Vm.run_handler ~host:Interp.null_host m ~fname:(Pipeline.entry_handler wf.Workflow.entry) ~req with
    | Ok (got, stats) ->
        Printf.printf "\ndistributed chain : %s\n" expected;
        Printf.printf "merged process    : %s\n" got;
        Printf.printf "identical         : %b, with %d remote calls and HTTP stack loaded = %b\n"
          (got = expected)
          (List.length stats.Interp.remote_sync)
          stats.Interp.curl_loaded;
        got = expected
    | Error e ->
        Printf.printf "trap: %s\n" e;
        false
  in

  (* The shims that bridge the ABIs. *)
  let shims =
    List.filter
      (fun (f : Ir.func) ->
        String.length f.Ir.fname > 9
        && (String.sub f.Ir.fname 0 9 = "caller2c_" || String.sub f.Ir.fname 0 9 = "c2callee_"))
      m.Ir.funcs
  in
  Printf.printf "\nAppendix-D shims generated:\n";
  List.iter
    (fun (f : Ir.func) ->
      Printf.printf "  %s (lang %s)\n" f.Ir.fname (Option.value ~default:"?" f.Ir.lang))
    shims;
  if not agreed then exit 1
