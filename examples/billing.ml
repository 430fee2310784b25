(* Per-function billing inside a merged binary (§8):

   $ dune exec examples/billing.exe

   Merged functions obscure the serverless billing boundary — many
   functions run as one process.  Quilt's billing pass instruments the
   merged IR so the provider still gets per-function execution counts.
   Exits 1 when the merged module traps or its response differs from the
   distributed workflow's. *)

module Ast = Quilt_lang.Ast
module Pipeline = Quilt_merge.Pipeline
module Eval = Quilt_lang.Eval
module Interp = Quilt_ir.Interp
module Vm = Quilt_ir.Vm
module Deathstar = Quilt_apps.Deathstar
module Workflow = Quilt_apps.Workflow

let () =
  let wfs = Deathstar.media ~async:false () in
  let review = List.find (fun w -> w.Workflow.wf_name = "compose-review") wfs in
  let report =
    Pipeline.merge_group
      ~lookup:(fun svc -> Workflow.lookup review svc)
      ~members:(Workflow.fn_names review) ~root:review.Workflow.entry ~billing:true ()
  in
  Printf.printf "merged compose-review (%d functions) with billing instrumentation\n\n"
    (List.length review.Workflow.functions);
  let req = "{\"data\":\"r1\"}" in
  let rec reference name req =
    let invoke ~kind:_ ~name ~req = fst (reference name req) in
    Eval.run ~invoke (Workflow.lookup review name) ~req
  in
  match
    Vm.run_handler ~host:Interp.null_host report.Pipeline.merged_module
      ~fname:(Pipeline.entry_handler review.Workflow.entry)
      ~req
  with
  | Error e ->
      Printf.printf "trap: %s\n" e;
      exit 1
  | Ok (got, stats) ->
      Printf.printf "one client request billed as:\n";
      let rows = Hashtbl.fold (fun fn n acc -> (fn, n) :: acc) stats.Interp.billing [] in
      List.iter
        (fun (fn, n) -> Printf.printf "  %-24s x%d\n" fn n)
        (List.sort compare rows);
      let total = List.fold_left (fun a (_, n) -> a + n) 0 rows in
      Printf.printf "\ntotal function executions in the merged process: %d\n" total;
      Printf.printf "(compose-and-upload is invoked by all five upload stages — Figure 3)\n";
      let expected, _ = reference review.Workflow.entry req in
      if got <> expected then begin
        Printf.eprintf "merged response %s differs from the distributed %s\n" got expected;
        exit 1
      end
