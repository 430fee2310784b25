(* Tests for quilt_lang: type checking, the reference evaluator, and — the
   core soundness property — that compiling a function through a frontend
   and running it on the QVM yields exactly the reference
   evaluator's output, in every language. *)

open Quilt_lang
module Ir_interp = Quilt_ir.Interp
module Ir_vm = Quilt_ir.Vm
module Json = Quilt_util.Json

(* --- Sample functions --- *)

let echo_fn lang =
  {
    Ast.fn_name = "echo-" ^ lang;
    fn_lang = lang;
    mergeable = true;
    body = Ast.Json_set_str (Ast.Json_empty, "echo", Ast.Json_get_str (Ast.Var "req", "msg"));
  }

let text_service lang =
  {
    Ast.fn_name = "text-service";
    fn_lang = lang;
    mergeable = true;
    body =
      Ast.Let
        ( "t",
          Ast.Json_get_str (Ast.Var "req", "text"),
          Ast.Seq
            ( Ast.Burn (Ast.Int_lit 500),
              Ast.Json_set_str (Ast.Json_empty, "text", Ast.Concat (Ast.Var "t", Ast.Str_lit "!")) ) );
  }

let compute_fn lang =
  (* Exercises arithmetic, comparison, if, and loops. *)
  {
    Ast.fn_name = "compute";
    fn_lang = lang;
    mergeable = true;
    body =
      Ast.Let
        ( "n",
          Ast.Json_get_int (Ast.Var "req", "n"),
          Ast.Let
            ( "sum",
              Ast.For_acc
                {
                  var = "i";
                  from_ = Ast.Int_lit 0;
                  to_ = Ast.Var "n";
                  acc = "s";
                  init = Ast.Int_lit 0;
                  body = Ast.Arith (Ast.Add, Ast.Var "s", Ast.Var "i");
                },
              Ast.Let
                ( "label",
                  Ast.If
                    (Ast.Cmp (Ast.Gt, Ast.Var "sum", Ast.Int_lit 10), Ast.Str_lit "big", Ast.Str_lit "small"),
                  Ast.Json_set_str
                    (Ast.Json_set_int (Ast.Json_empty, "sum", Ast.Var "sum"), "label", Ast.Var "label") ) ) );
  }

let strings_fn lang =
  {
    Ast.fn_name = "strings";
    fn_lang = lang;
    mergeable = true;
    body =
      Ast.Let
        ( "a",
          Ast.Json_get_str (Ast.Var "req", "a"),
          Ast.Let
            ( "same",
              Ast.Str_eq (Ast.Var "a", Ast.Str_lit "quilt"),
              Ast.Json_set_int
                ( Ast.Json_set_str (Ast.Json_empty, "cat", Ast.Concat (Ast.Var "a", Ast.Itoa (Ast.Atoi (Ast.Str_lit "42")))),
                  "same",
                  Ast.Var "same" ) ) );
  }

let caller_fn lang ~callee =
  {
    Ast.fn_name = "caller";
    fn_lang = lang;
    mergeable = true;
    body =
      Ast.Let
        ( "r",
          Ast.Invoke (callee, Ast.Json_set_str (Ast.Json_empty, "text", Ast.Json_get_str (Ast.Var "req", "title"))),
          Ast.Json_set_str (Ast.Json_empty, "title", Ast.Json_get_str (Ast.Var "r", "text")) );
  }

(* --- Typing --- *)

let test_typecheck_accepts_samples () =
  List.iter
    (fun lang ->
      Ast.check_fn (echo_fn lang);
      Ast.check_fn (text_service lang);
      Ast.check_fn (compute_fn lang);
      Ast.check_fn (strings_fn lang))
    Quilt_ir.Intrinsics.languages

let test_typecheck_rejects_bad () =
  let bad body = { Ast.fn_name = "bad"; fn_lang = "rust"; mergeable = true; body } in
  let cases =
    [
      Ast.Int_lit 3 (* body must be string *);
      Ast.Concat (Ast.Int_lit 1, Ast.Str_lit "x");
      Ast.Wait (Ast.Str_lit "not a future");
      Ast.Var "undefined";
      Ast.If (Ast.Str_lit "cond not int", Ast.Str_lit "a", Ast.Str_lit "b");
      Ast.If (Ast.Int_lit 1, Ast.Str_lit "a", Ast.Int_lit 2);
    ]
  in
  List.iter
    (fun body ->
      match Ast.check_fn (bad body) with
      | exception Ast.Type_error _ -> ()
      | () -> Alcotest.fail "expected type error")
    cases

let test_typecheck_rejects_unknown_lang () =
  match Ast.check_fn { Ast.fn_name = "x"; fn_lang = "cobol"; mergeable = true; body = Ast.Str_lit "" } with
  | exception Ast.Type_error _ -> ()
  | () -> Alcotest.fail "expected rejection of unknown language"

let test_invocations_listing () =
  let f = caller_fn "rust" ~callee:"text-service" in
  Alcotest.(check (list (pair string string)))
    "sync call found"
    [ ("text-service", "sync") ]
    (List.map (fun (s, k) -> (s, match k with `Sync -> "sync" | `Async -> "async")) (Ast.invocations f.Ast.body))

(* --- Reference evaluator --- *)

let no_invoke ~kind:_ ~name ~req:_ = Alcotest.fail ("unexpected invoke of " ^ name)

let test_eval_compute () =
  let out, trace = Eval.run ~invoke:no_invoke (compute_fn "c") ~req:"{\"n\":6}" in
  Alcotest.(check string) "sum 0..5 = 15, big" "{\"sum\":15,\"label\":\"big\"}" out;
  Alcotest.(check int) "no phases" 0 (List.length trace)

let test_eval_trace_phases () =
  let _, trace = Eval.run ~invoke:no_invoke (text_service "go") ~req:"{\"text\":\"hi\"}" in
  match trace with
  | [ Eval.Compute us ] -> Alcotest.(check (float 1e-9)) "burn" 500.0 us
  | _ -> Alcotest.fail "expected a single Compute phase"

let test_eval_invoke_and_async () =
  let f =
    {
      Ast.fn_name = "spawner";
      fn_lang = "rust";
      mergeable = true;
      body =
        Ast.Let
          ( "f1",
            Ast.Invoke_async ("w", Ast.Str_lit "{\"i\":1}"),
            Ast.Let
              ( "r0",
                Ast.Invoke ("w", Ast.Str_lit "{\"i\":0}"),
                Ast.Let
                  ( "r1",
                    Ast.Wait (Ast.Var "f1"),
                    Ast.Json_set_str
                      ( Ast.Json_set_raw (Ast.Json_empty, "a", Ast.Var "r0"),
                        "b",
                        Ast.Json_get_str (Ast.Var "r1", "echo") ) ) ) );
    }
  in
  let invoke ~kind:_ ~name ~req =
    Json.to_string (Json.Obj [ ("echo", Json.String (name ^ ":" ^ req)) ])
  in
  let out, trace = Eval.run ~invoke f ~req:"{}" in
  Alcotest.(check bool) "output mentions both" true (String.length out > 10);
  match trace with
  | [ Eval.Async_spawn { future = 1; callee = "w"; _ }; Eval.Sync_call { callee = "w"; _ }; Eval.Async_join 1 ]
    ->
      ()
  | _ -> Alcotest.fail "unexpected trace shape"

let test_eval_division_by_zero () =
  let f =
    {
      Ast.fn_name = "div0";
      fn_lang = "c";
      mergeable = true;
      body = Ast.Itoa (Ast.Arith (Ast.Div, Ast.Int_lit 1, Ast.Int_lit 0));
    }
  in
  match Eval.run ~invoke:no_invoke f ~req:"{}" with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected eval error"

(* --- Frontend/interpreter equivalence (the pipeline's ground truth) --- *)

let interp_of_fn ?(host = Ir_interp.null_host) fn req =
  let m = Frontend.compile fn in
  match Ir_vm.run_handler ~host m ~fname:(Ast.handler_symbol fn.Ast.fn_name) ~req with
  | Ok (res, stats) -> (res, stats)
  | Error e -> Alcotest.fail (Printf.sprintf "interp failed (%s): %s" fn.Ast.fn_name e)

let check_equivalence fn req =
  let expected, _ = Eval.run ~invoke:no_invoke fn ~req in
  let got, _ = interp_of_fn fn req in
  Alcotest.(check string) (fn.Ast.fn_name ^ "/" ^ fn.Ast.fn_lang) expected got

let test_frontend_equivalence_all_languages () =
  List.iter
    (fun lang ->
      check_equivalence (echo_fn lang) "{\"msg\":\"hello quilt\"}";
      check_equivalence (text_service lang) "{\"text\":\"abc\"}";
      check_equivalence (compute_fn lang) "{\"n\":6}";
      check_equivalence (compute_fn lang) "{\"n\":0}";
      check_equivalence (compute_fn lang) "{\"n\":3}";
      check_equivalence (strings_fn lang) "{\"a\":\"quilt\"}";
      check_equivalence (strings_fn lang) "{\"a\":\"other\"}")
    Quilt_ir.Intrinsics.languages

let test_frontend_work_intrinsics_forwarded () =
  let _, stats = interp_of_fn (text_service "swift") "{\"text\":\"x\"}" in
  Alcotest.(check (float 1e-9)) "burn reaches stats" 500.0 stats.Ir_interp.cpu_us

let test_frontend_remote_call_goes_through_gateway () =
  let fn = caller_fn "rust" ~callee:"text-service" in
  let host =
    {
      Ir_interp.invoke =
        (fun ~kind:_ ~name ~req ->
          Alcotest.(check string) "routed to service" "text-service" name;
          let parsed = Json.of_string req in
          Json.to_string
            (Json.Obj
               [ ("text", Json.String (Option.value ~default:"" Json.(to_string_opt (member "text" parsed)) ^ "!")) ]));
    }
  in
  let got, stats = interp_of_fn ~host fn "{\"title\":\"sosp\"}" in
  Alcotest.(check string) "composed" "{\"title\":\"sosp!\"}" got;
  Alcotest.(check int) "one remote sync call" 1 (List.length stats.Ir_interp.remote_sync);
  Alcotest.(check bool) "curl loaded eagerly pre-merge" true stats.Ir_interp.curl_loaded_eagerly

let test_frontend_modules_verify () =
  List.iter
    (fun lang ->
      let m = Frontend.compile (compute_fn lang) in
      Alcotest.(check int) (lang ^ " verifies") 0 (List.length (Quilt_ir.Verify.run m)))
    Quilt_ir.Intrinsics.languages

let test_frontend_text_roundtrip () =
  (* The pipeline writes modules as text between stages; frontend output
     must round-trip. *)
  List.iter
    (fun lang ->
      let m = Frontend.compile (compute_fn lang) in
      let printed = Quilt_ir.Pp.to_string m in
      let reparsed = Quilt_ir.Parser.parse_module printed in
      Alcotest.(check string) (lang ^ " roundtrip") printed (Quilt_ir.Pp.to_string reparsed))
    Quilt_ir.Intrinsics.languages

let prop_equivalence_random_inputs =
  QCheck.Test.make ~name:"frontend = reference evaluator on random inputs" ~count:60
    QCheck.(pair (int_range 0 20) (oneofl Quilt_ir.Intrinsics.languages))
    (fun (n, lang) ->
      let fn = compute_fn lang in
      let req = Printf.sprintf "{\"n\":%d}" n in
      let expected, _ = Eval.run ~invoke:no_invoke fn ~req in
      let m = Frontend.compile fn in
      match Ir_vm.run_handler ~host:Ir_interp.null_host m ~fname:(Ast.handler_symbol fn.Ast.fn_name) ~req with
      | Ok (got, _) -> got = expected
      | Error _ -> false)

let suite =
  [
    ( "lang.typing",
      [
        Alcotest.test_case "accepts samples" `Quick test_typecheck_accepts_samples;
        Alcotest.test_case "rejects ill-typed" `Quick test_typecheck_rejects_bad;
        Alcotest.test_case "rejects unknown language" `Quick test_typecheck_rejects_unknown_lang;
        Alcotest.test_case "invocation listing" `Quick test_invocations_listing;
      ] );
    ( "lang.eval",
      [
        Alcotest.test_case "compute" `Quick test_eval_compute;
        Alcotest.test_case "trace phases" `Quick test_eval_trace_phases;
        Alcotest.test_case "invoke and async" `Quick test_eval_invoke_and_async;
        Alcotest.test_case "division by zero" `Quick test_eval_division_by_zero;
      ] );
    ( "lang.frontend",
      [
        Alcotest.test_case "equivalence, all languages" `Quick test_frontend_equivalence_all_languages;
        Alcotest.test_case "work intrinsics forwarded" `Quick test_frontend_work_intrinsics_forwarded;
        Alcotest.test_case "remote call via gateway" `Quick test_frontend_remote_call_goes_through_gateway;
        Alcotest.test_case "modules verify" `Quick test_frontend_modules_verify;
        Alcotest.test_case "text roundtrip" `Quick test_frontend_text_roundtrip;
        QCheck_alcotest.to_alcotest prop_equivalence_random_inputs;
      ] );
  ]
