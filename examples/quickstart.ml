(* Quickstart: merge two serverless functions written in different
   languages and run the merged binary.

   $ dune exec examples/quickstart.exe

   Walks the core API: define functions (Quilt_lang.Ast), compile them
   through a frontend, merge with the Figure-5 pipeline, and execute the
   merged module on the QVM — checking it computes exactly what the
   distributed workflow computes, without touching the network.  Exits 1
   when the merged module traps or disagrees. *)

module Ast = Quilt_lang.Ast
module Eval = Quilt_lang.Eval
module Pipeline = Quilt_merge.Pipeline
module Sizes = Quilt_merge.Sizes
module Interp = Quilt_ir.Interp
module Vm = Quilt_ir.Vm
module Pp = Quilt_ir.Pp
module Ir = Quilt_ir.Ir

(* A Rust "greeter" that asks a Go "formatter" to render its message. *)
let formatter =
  {
    Ast.fn_name = "formatter";
    fn_lang = "go";
    mergeable = true;
    body =
      Ast.Let
        ( "name",
          Ast.Json_get_str (Ast.Var "req", "name"),
          Ast.Json_set_str
            ( Ast.Json_empty,
              "text",
              Ast.Concat (Ast.Str_lit "Hello, ", Ast.Concat (Ast.Var "name", Ast.Str_lit "!")) ) );
  }

let greeter =
  {
    Ast.fn_name = "greeter";
    fn_lang = "rust";
    mergeable = true;
    body =
      Ast.Let
        ( "r",
          Ast.Invoke ("formatter", Ast.Json_set_str (Ast.Json_empty, "name", Ast.Json_get_str (Ast.Var "req", "who"))),
          Ast.Json_set_str (Ast.Json_empty, "greeting", Ast.Json_get_str (Ast.Var "r", "text")) );
  }

let () =
  let req = "{\"who\":\"SOSP\"}" in

  (* 1. What the unmerged workflow computes (reference). *)
  let lookup = function
    | "greeter" -> greeter
    | "formatter" -> formatter
    | s -> failwith ("unknown function " ^ s)
  in
  let rec run_distributed name req =
    let invoke ~kind:_ ~name ~req = fst (run_distributed name req) in
    Eval.run ~invoke (lookup name) ~req
  in
  let expected, _ = run_distributed "greeter" req in
  Printf.printf "distributed workflow answers : %s\n" expected;

  (* 2. Merge greeter+formatter into one module (RenameFunc, llvm-link,
     MergeFunc with Appendix-D shims, DelayHTTP, DCE). *)
  let report =
    Pipeline.merge_group ~lookup ~members:[ "greeter"; "formatter" ] ~root:"greeter" ()
  in
  let m = report.Pipeline.merged_module in
  Printf.printf "merged module               : %d functions, languages: %s, %.2f MB (model)\n"
    (List.length m.Ir.funcs)
    (String.concat "+" report.Pipeline.languages)
    (Sizes.binary_size_mb m);

  (* 3. Run the merged binary.  null_host: any network call would fail the
     run — proving the invocation became a local call. *)
  let agreed =
    match Vm.run_handler ~host:Interp.null_host m ~fname:(Pipeline.entry_handler "greeter") ~req with
    | Ok (got, stats) ->
        Printf.printf "merged binary answers       : %s\n" got;
        Printf.printf "agreement                   : %b\n" (got = expected);
        Printf.printf "remote invocations          : %d\n" (List.length stats.Interp.remote_sync);
        Printf.printf "HTTP stack loaded           : %b (DelayHTTP kept it out)\n" stats.Interp.curl_loaded;
        got = expected
    | Error e ->
        Printf.printf "merged binary trapped: %s\n" e;
        false
  in

  (* 4. Peek at the generated shim, straight out of Appendix D. *)
  (match Ir.find_func m "c2callee_formatter" with
  | Some shim -> Printf.printf "\nthe cross-language shim:\n%s\n" (Pp.func_to_string shim)
  | None -> ());
  if not agreed then exit 1
