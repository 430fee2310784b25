(* Tests for quilt_merge: the full Figure-5 pipeline.  The headline
   properties:
   - a merged workflow computes exactly what the unmerged workflow computes
     (same- and cross-language);
   - after merging, member-internal invocations never touch the network and
     the HTTP stack is not loaded;
   - §5.6 conditional invocations go local up to the profiled α and remote
     beyond it;
   - DCE shrinks the module and Appendix-E size relations hold. *)

open Quilt_lang
module Ir = Quilt_ir.Ir
module Interp = Quilt_ir.Interp
module Vm = Quilt_ir.Vm
module Pipeline = Quilt_merge.Pipeline
module Sizes = Quilt_merge.Sizes
module Json = Quilt_util.Json

(* A three-function workflow: front -> middle -> leaf, with front also
   calling leaf directly. *)
let leaf lang =
  {
    Ast.fn_name = "leaf";
    fn_lang = lang;
    mergeable = true;
    body =
      Ast.Let
        ( "x",
          Ast.Json_get_int (Ast.Var "req", "x"),
          Ast.Json_set_int (Ast.Json_empty, "y", Ast.Arith (Ast.Mul, Ast.Var "x", Ast.Int_lit 3)) );
  }

let middle lang =
  {
    Ast.fn_name = "middle";
    fn_lang = lang;
    mergeable = true;
    body =
      Ast.Let
        ( "r",
          Ast.Invoke ("leaf", Ast.Json_set_int (Ast.Json_empty, "x", Ast.Json_get_int (Ast.Var "req", "x"))),
          Ast.Json_set_int
            (Ast.Json_empty, "z", Ast.Arith (Ast.Add, Ast.Json_get_int (Ast.Var "r", "y"), Ast.Int_lit 1)) );
  }

let front lang =
  {
    Ast.fn_name = "front";
    fn_lang = lang;
    mergeable = true;
    body =
      Ast.Let
        ( "m",
          Ast.Invoke ("middle", Ast.Json_set_int (Ast.Json_empty, "x", Ast.Json_get_int (Ast.Var "req", "x"))),
          Ast.Let
            ( "l",
              Ast.Invoke ("leaf", Ast.Json_set_int (Ast.Json_empty, "x", Ast.Int_lit 10)),
              Ast.Json_set_int
                ( Ast.Json_set_int (Ast.Json_empty, "mz", Ast.Json_get_int (Ast.Var "m", "z")),
                  "ly",
                  Ast.Json_get_int (Ast.Var "l", "y") ) ) );
  }

let fan_out lang ~callee =
  {
    Ast.fn_name = "fan-out";
    fn_lang = lang;
    mergeable = true;
    body =
      Ast.Let
        ( "n",
          Ast.Json_get_int (Ast.Var "req", "num"),
          Ast.Json_set_str
            ( Ast.Json_empty,
              "all",
              Ast.For_acc
                {
                  var = "i";
                  from_ = Ast.Int_lit 0;
                  to_ = Ast.Var "n";
                  acc = "out";
                  init = Ast.Str_lit "";
                  body =
                    Ast.Let
                      ( "f",
                        Ast.Invoke_async (callee, Ast.Json_set_int (Ast.Json_empty, "x", Ast.Var "i")),
                        Ast.Let
                          ( "r",
                            Ast.Wait (Ast.Var "f"),
                            Ast.Concat
                              (Ast.Var "out", Ast.Concat (Ast.Itoa (Ast.Json_get_int (Ast.Var "r", "y")), Ast.Str_lit ",")) ) );
                } ) );
  }

let lookup_for fns svc =
  match List.find_opt (fun f -> f.Ast.fn_name = svc) fns with
  | Some f -> f
  | None -> Alcotest.fail ("no such function " ^ svc)

(* Reference: evaluate the workflow with Eval, recursively. *)
let rec reference fns svc req =
  let fn = lookup_for fns svc in
  let invoke ~kind:_ ~name ~req = fst (reference fns name req) in
  Eval.run ~invoke fn ~req

let merge fns ~members ~root ?guards () =
  Pipeline.merge_group ~lookup:(lookup_for fns) ~members ~root ?guards ()

let run_merged report ~root ~req ~host =
  match
    Vm.run_handler ~host report.Pipeline.merged_module ~fname:(Pipeline.entry_handler root) ~req
  with
  | Ok (res, stats) -> (res, stats)
  | Error e -> Alcotest.fail ("merged module failed: " ^ e)

let test_merge_two_same_language () =
  let fns = [ front "rust"; middle "rust"; leaf "rust" ] in
  let report = merge fns ~members:[ "middle"; "leaf" ] ~root:"middle" () in
  let expected, _ = reference fns "middle" "{\"x\":5}" in
  let got, stats = run_merged report ~root:"middle" ~req:"{\"x\":5}" ~host:Interp.null_host in
  Alcotest.(check string) "same output" expected got;
  Alcotest.(check int) "no remote calls" 0 (List.length stats.Interp.remote_sync);
  Alcotest.(check bool) "HTTP stack never loaded" false stats.Interp.curl_loaded

let test_merge_three_with_shared_callee () =
  (* leaf is called by both front and middle — §5.4's compose-and-upload
     situation: merged once, reused. *)
  let fns = [ front "rust"; middle "rust"; leaf "rust" ] in
  let report = merge fns ~members:[ "front"; "middle"; "leaf" ] ~root:"front" () in
  let expected, _ = reference fns "front" "{\"x\":4}" in
  let got, stats = run_merged report ~root:"front" ~req:"{\"x\":4}" ~host:Interp.null_host in
  Alcotest.(check string) "same output" expected got;
  Alcotest.(check bool) "HTTP stack never loaded" false stats.Interp.curl_loaded;
  (* Both call sites of leaf were rewritten: one in front's handler and one
     in middle — where the site appears in both middle's (dead, pre-DCE)
     handler and its localized clone, so three rewrites happen. *)
  let leaf_sites = List.assoc "leaf" report.Pipeline.rounds in
  Alcotest.(check int) "leaf sites rewritten" 3 leaf_sites

let cross_language_pairs =
  [ ("rust", "go"); ("c", "swift"); ("cpp", "rust"); ("go", "c"); ("swift", "cpp"); ("rust", "swift") ]

let test_merge_cross_language () =
  List.iter
    (fun (l1, l2) ->
      let fns = [ front l1; middle l2; leaf l1 ] in
      let report = merge fns ~members:[ "front"; "middle"; "leaf" ] ~root:"front" () in
      Alcotest.(check (list string))
        (Printf.sprintf "%s+%s languages recorded" l1 l2)
        (List.sort_uniq compare [ l1; l2 ])
        report.Pipeline.languages;
      let expected, _ = reference fns "front" "{\"x\":7}" in
      let got, stats = run_merged report ~root:"front" ~req:"{\"x\":7}" ~host:Interp.null_host in
      Alcotest.(check string) (Printf.sprintf "%s calls %s" l1 l2) expected got;
      Alcotest.(check int) "no remote" 0 (List.length stats.Interp.remote_sync))
    cross_language_pairs

let test_merge_all_five_languages () =
  (* A chain across all five languages in one process. *)
  let chain =
    [
      ("f0", "c", Some "f1");
      ("f1", "cpp", Some "f2");
      ("f2", "rust", Some "f3");
      ("f3", "go", Some "f4");
      ("f4", "swift", None);
    ]
  in
  let fns =
    List.map
      (fun (name, lang, next) ->
        let body =
          match next with
          | None ->
              Ast.Json_set_int
                (Ast.Json_empty, "v", Ast.Arith (Ast.Add, Ast.Json_get_int (Ast.Var "req", "v"), Ast.Int_lit 1))
          | Some callee ->
              Ast.Let
                ( "r",
                  Ast.Invoke
                    (callee, Ast.Json_set_int (Ast.Json_empty, "v", Ast.Json_get_int (Ast.Var "req", "v"))),
                  Ast.Json_set_int
                    (Ast.Json_empty, "v", Ast.Arith (Ast.Add, Ast.Json_get_int (Ast.Var "r", "v"), Ast.Int_lit 1)) )
        in
        { Ast.fn_name = name; fn_lang = lang; mergeable = true; body })
      chain
  in
  let members = List.map (fun f -> f.Ast.fn_name) fns in
  let report = merge fns ~members ~root:"f0" () in
  Alcotest.(check (list string)) "all five languages" [ "c"; "cpp"; "go"; "rust"; "swift" ]
    report.Pipeline.languages;
  let got, stats = run_merged report ~root:"f0" ~req:"{\"v\":0}" ~host:Interp.null_host in
  Alcotest.(check string) "five increments" "{\"v\":5}" got;
  Alcotest.(check bool) "no HTTP" false stats.Interp.curl_loaded

let test_merged_module_verifies_and_roundtrips () =
  let fns = [ front "rust"; middle "go"; leaf "swift" ] in
  let report = merge fns ~members:[ "front"; "middle"; "leaf" ] ~root:"front" () in
  let m = report.Pipeline.merged_module in
  Alcotest.(check int) "verifies" 0 (List.length (Quilt_ir.Verify.run m));
  let printed = Quilt_ir.Pp.to_string m in
  let reparsed = Quilt_ir.Parser.parse_module printed in
  Alcotest.(check string) "roundtrips" printed (Quilt_ir.Pp.to_string reparsed)

let test_merge_keeps_cut_edges_remote () =
  (* Merge only front+middle: the calls to leaf must stay remote. *)
  let fns = [ front "rust"; middle "rust"; leaf "rust" ] in
  let report = merge fns ~members:[ "front"; "middle" ] ~root:"front" () in
  let host =
    { Interp.invoke = (fun ~kind:_ ~name ~req -> fst (reference fns name req)) }
  in
  let expected, _ = reference fns "front" "{\"x\":2}" in
  let got, stats = run_merged report ~root:"front" ~req:"{\"x\":2}" ~host in
  Alcotest.(check string) "same output" expected got;
  Alcotest.(check int) "two remote leaf calls" 2 (List.length stats.Interp.remote_sync);
  List.iter
    (fun (callee, _) -> Alcotest.(check string) "remote target is leaf" "leaf" callee)
    stats.Interp.remote_sync;
  (* The HTTP stack was loaded lazily, only because a remote call happened. *)
  Alcotest.(check bool) "curl loaded" true stats.Interp.curl_loaded;
  Alcotest.(check bool) "but not eagerly" false stats.Interp.curl_loaded_eagerly

let test_merge_async_fan_out_unconditional () =
  let fns = [ fan_out "rust" ~callee:"leaf"; leaf "rust" ] in
  let report = merge fns ~members:[ "fan-out"; "leaf" ] ~root:"fan-out" () in
  let expected, _ = reference fns "fan-out" "{\"num\":5}" in
  let got, stats = run_merged report ~root:"fan-out" ~req:"{\"num\":5}" ~host:Interp.null_host in
  Alcotest.(check string) "fan-out output" expected got;
  Alcotest.(check int) "no remote async" 0 (List.length stats.Interp.remote_async)

let test_conditional_invocation_below_alpha () =
  let fns = [ fan_out "rust" ~callee:"leaf"; leaf "rust" ] in
  let report =
    merge fns ~members:[ "fan-out"; "leaf" ] ~root:"fan-out" ~guards:[ (("fan-out", "leaf"), 8) ] ()
  in
  let expected, _ = reference fns "fan-out" "{\"num\":6}" in
  let got, stats = run_merged report ~root:"fan-out" ~req:"{\"num\":6}" ~host:Interp.null_host in
  Alcotest.(check string) "output matches below alpha" expected got;
  Alcotest.(check int) "all local" 0 (List.length stats.Interp.remote_async)

let test_conditional_invocation_above_alpha () =
  let fns = [ fan_out "rust" ~callee:"leaf"; leaf "rust" ] in
  let report =
    merge fns ~members:[ "fan-out"; "leaf" ] ~root:"fan-out" ~guards:[ (("fan-out", "leaf"), 8) ] ()
  in
  let host = { Interp.invoke = (fun ~kind:_ ~name ~req -> fst (reference fns name req)) } in
  let expected, _ = reference fns "fan-out" "{\"num\":12}" in
  let got, stats = run_merged report ~root:"fan-out" ~req:"{\"num\":12}" ~host in
  Alcotest.(check string) "correct despite overflow" expected got;
  Alcotest.(check int) "4 overflow calls went remote" 4 (List.length stats.Interp.remote_async);
  Alcotest.(check bool) "curl loaded lazily for the overflow" true stats.Interp.curl_loaded;
  Alcotest.(check bool) "not eagerly" false stats.Interp.curl_loaded_eagerly

let test_conditional_counter_resets_per_request () =
  (* Two requests below alpha in a row: the second must also be fully
     local, i.e. the counter was reset. *)
  let fns = [ fan_out "rust" ~callee:"leaf"; leaf "rust" ] in
  let report =
    merge fns ~members:[ "fan-out"; "leaf" ] ~root:"fan-out" ~guards:[ (("fan-out", "leaf"), 8) ] ()
  in
  (* The interpreter materializes globals per run, so cross-request counter
     state is exercised by running twice within one module instance is not
     possible through run_handler; instead check the reset store exists in
     the entry handler. *)
  let m = report.Pipeline.merged_module in
  match Ir.find_func m (Pipeline.entry_handler "fan-out") with
  | None -> Alcotest.fail "entry handler missing"
  | Some f -> (
      match f.Ir.blocks with
      | entry :: _ ->
          let has_reset =
            List.exists
              (fun (i : Ir.instr) ->
                match i with
                | Ir.Store { src = Ir.Const (Ir.Cint (Ir.I64, 0L)); ptr = Ir.Const (Ir.Cglobal g); _ } ->
                    String.length g >= 5 && String.sub g 0 5 = "qcnt_"
                | _ -> false)
              entry.Ir.instrs
          in
          Alcotest.(check bool) "counter reset at entry" true has_reset
      | [] -> Alcotest.fail "no blocks")

let test_dce_removes_dead_handlers () =
  let fns = [ front "rust"; middle "rust"; leaf "rust" ] in
  let report = merge fns ~members:[ "front"; "middle"; "leaf" ] ~root:"front" () in
  let m = report.Pipeline.merged_module in
  Alcotest.(check bool) "middle handler stripped" true (Ir.find_func m "middle__handler" = None);
  Alcotest.(check bool) "leaf handler stripped" true (Ir.find_func m "leaf__handler" = None);
  Alcotest.(check bool) "entry handler kept" true (Ir.find_func m "front__handler" <> None);
  Alcotest.(check bool) "locals kept" true (Ir.find_func m "middle__local" <> None);
  Alcotest.(check bool) "something was removed" true (report.Pipeline.removed_symbols > 0)

let test_merge_rejects_disconnected_member () =
  let isolated =
    { Ast.fn_name = "island"; fn_lang = "rust"; mergeable = true; body = Ast.Json_empty }
  in
  let fns = [ front "rust"; middle "rust"; leaf "rust"; isolated ] in
  match merge fns ~members:[ "front"; "middle"; "leaf"; "island" ] ~root:"front" () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected rejection of disconnected member"

(* --- Spawn-all fan-out (Fan_out_all) through the pipeline --- *)

let fan_out_all lang ~callee =
  {
    Ast.fn_name = "fan-out";
    fn_lang = lang;
    mergeable = true;
    body =
      Ast.Json_set_str
        ( Ast.Json_empty,
          "all",
          Ast.Fan_out_all { callee; count = Ast.Json_get_int (Ast.Var "req", "num") } );
  }

let worker lang =
  {
    Ast.fn_name = "worker";
    fn_lang = lang;
    mergeable = true;
    body =
      Ast.Json_set_str
        (Ast.Json_empty, "data", Ast.Concat (Ast.Str_lit "w", Ast.Json_get_str (Ast.Var "req", "data")));
  }

let test_fan_out_all_merged_equivalence () =
  List.iter
    (fun (l1, l2) ->
      let fns = [ fan_out_all l1 ~callee:"worker"; worker l2 ] in
      let report = merge fns ~members:[ "fan-out"; "worker" ] ~root:"fan-out" () in
      List.iter
        (fun num ->
          let req = Printf.sprintf "{\"num\":%d}" num in
          let expected, _ = reference fns "fan-out" req in
          let got, stats = run_merged report ~root:"fan-out" ~req ~host:Interp.null_host in
          Alcotest.(check string) (Printf.sprintf "%s/%s num=%d" l1 l2 num) expected got;
          Alcotest.(check int) "all local" 0 (List.length stats.Interp.remote_async))
        [ 0; 1; 4; 9 ])
    [ ("rust", "rust"); ("go", "swift"); ("c", "rust") ]

let test_fan_out_all_guarded_overflow () =
  let fns = [ fan_out_all "rust" ~callee:"worker"; worker "rust" ] in
  let report =
    merge fns ~members:[ "fan-out"; "worker" ] ~root:"fan-out"
      ~guards:[ (("fan-out", "worker"), 3) ]
      ()
  in
  let host = { Interp.invoke = (fun ~kind:_ ~name ~req -> fst (reference fns name req)) } in
  let expected, _ = reference fns "fan-out" "{\"num\":7}" in
  let got, stats = run_merged report ~root:"fan-out" ~req:"{\"num\":7}" ~host in
  Alcotest.(check string) "overflow preserves output" expected got;
  Alcotest.(check int) "4 of 7 went remote" 4 (List.length stats.Interp.remote_async)

(* --- Per-function billing (§8) --- *)

let test_billing_counts_per_function () =
  let fns = [ front "rust"; middle "rust"; leaf "rust" ] in
  let report =
    Pipeline.merge_group
      ~lookup:(lookup_for fns)
      ~members:[ "front"; "middle"; "leaf" ]
      ~root:"front" ~billing:true ()
  in
  let m = report.Pipeline.merged_module in
  Alcotest.(check (list string)) "billed functions" [ "front"; "leaf"; "middle" ]
    (List.sort compare (Quilt_ir.Pass_billing.billed_functions m));
  match Vm.run_handler ~host:Interp.null_host m ~fname:(Pipeline.entry_handler "front") ~req:"{\"x\":3}" with
  | Error e -> Alcotest.fail e
  | Ok (got, stats) ->
      let expected, _ = reference fns "front" "{\"x\":3}" in
      Alcotest.(check string) "billing does not change behaviour" expected got;
      let count fn = Option.value ~default:0 (Hashtbl.find_opt stats.Interp.billing fn) in
      Alcotest.(check int) "front billed once" 1 (count "front");
      Alcotest.(check int) "middle billed once" 1 (count "middle");
      (* leaf is called by both front and middle. *)
      Alcotest.(check int) "leaf billed twice" 2 (count "leaf")

let test_billing_off_by_default () =
  let fns = [ front "rust"; middle "rust"; leaf "rust" ] in
  let report = merge fns ~members:[ "front"; "middle"; "leaf" ] ~root:"front" () in
  Alcotest.(check (list string)) "no billing globals" []
    (Quilt_ir.Pass_billing.billed_functions report.Pipeline.merged_module)

(* --- Sizes (Appendix E relations) --- *)

let test_sizes_merged_smaller_than_sum () =
  let fns = [ front "rust"; middle "rust"; leaf "rust" ] in
  let singles = List.map (fun f -> Sizes.binary_size_mb (Frontend.compile f)) fns in
  let sum = List.fold_left ( +. ) 0.0 singles in
  let report = merge fns ~members:[ "front"; "middle"; "leaf" ] ~root:"front" () in
  let merged = Sizes.binary_size_mb report.Pipeline.merged_module in
  Alcotest.(check bool) "merged < sum of singles" true (merged < sum);
  Alcotest.(check bool) "merged > any single" true (List.for_all (fun s -> merged > s *. 0.9) singles)

let test_sizes_cross_language_pays_two_runtimes () =
  let mono = merge [ front "rust"; middle "rust"; leaf "rust" ] ~members:[ "front"; "middle"; "leaf" ] ~root:"front" () in
  let cross = merge [ front "rust"; middle "go"; leaf "rust" ] ~members:[ "front"; "middle"; "leaf" ] ~root:"front" () in
  Alcotest.(check bool) "two runtimes cost more" true
    (Sizes.binary_size_mb cross.Pipeline.merged_module
    > Sizes.binary_size_mb mono.Pipeline.merged_module)

let test_sizes_http_stub_dropped_when_fully_merged () =
  let fns = [ front "rust"; middle "rust"; leaf "rust" ] in
  let full = merge fns ~members:[ "front"; "middle"; "leaf" ] ~root:"front" () in
  let partial = merge fns ~members:[ "front"; "middle" ] ~root:"front" () in
  let stub m = List.assoc "http-stub" (Sizes.breakdown m.Pipeline.merged_module) in
  Alcotest.(check (float 1e-9)) "no stub when no remote calls remain" 0.0 (stub full);
  Alcotest.(check bool) "stub present with cut edges" true (stub partial > 0.0)

let test_sizes_breakdown_sums () =
  let m = Frontend.compile (leaf "go") in
  let total = Sizes.binary_size_mb m in
  let parts = List.fold_left (fun a (_, v) -> a +. v) 0.0 (Sizes.breakdown m) in
  Alcotest.(check (float 1e-9)) "breakdown sums to total" total parts

(* --- content-addressed merge cache --- *)

(* Identical inputs (same member ASTs, root, edge modes, billing) must hit;
   the key sorts members, so member-list order is irrelevant. *)
let test_cache_hit_on_identical_inputs () =
  Pipeline.reset_cache ();
  let fns = [ front "rust"; middle "rust"; leaf "rust" ] in
  let r1 = merge fns ~members:[ "middle"; "leaf" ] ~root:"middle" () in
  Alcotest.(check (pair int int)) "first merge misses" (0, 1) (Pipeline.cache_stats ());
  let r2 = merge fns ~members:[ "middle"; "leaf" ] ~root:"middle" () in
  Alcotest.(check (pair int int)) "second merge hits" (1, 1) (Pipeline.cache_stats ());
  Alcotest.(check bool) "the report is shared, not recompiled" true (r1 == r2);
  ignore (merge fns ~members:[ "leaf"; "middle" ] ~root:"middle" ());
  Alcotest.(check (pair int int)) "member order irrelevant" (2, 1) (Pipeline.cache_stats ())

(* Content addressing invalidates by construction: change a member's source
   and the digest — hence the key — changes. *)
let test_cache_miss_on_changed_source () =
  Pipeline.reset_cache ();
  let fns = [ front "rust"; middle "rust"; leaf "rust" ] in
  ignore (merge fns ~members:[ "middle"; "leaf" ] ~root:"middle" ());
  let fns' = [ front "rust"; middle "rust"; leaf "go" ] in
  ignore (merge fns' ~members:[ "middle"; "leaf" ] ~root:"middle" ());
  Alcotest.(check (pair int int)) "changed member source misses" (0, 2) (Pipeline.cache_stats ());
  ignore (merge fns' ~members:[ "middle"; "leaf" ] ~root:"middle" ());
  Alcotest.(check (pair int int)) "then hits on repeat" (1, 2) (Pipeline.cache_stats ())

(* Guards are part of the key: a re-profile that changes an α must
   recompile, an unchanged α must not — however the list is ordered or
   repeated (the first entry for a pair wins). *)
let test_cache_keyed_by_guards () =
  Pipeline.reset_cache ();
  let fns = [ front "rust"; middle "rust"; leaf "rust" ] in
  let members = [ "front"; "middle"; "leaf" ] in
  let fm = ("front", "middle") and ml = ("middle", "leaf") in
  let merge guards = ignore (merge fns ~members ~root:"front" ~guards ()) in
  merge [];
  merge [ (fm, 2); (ml, 3) ];
  merge [ (fm, 2); (ml, 4) ];
  Alcotest.(check (pair int int)) "distinct guards are distinct keys" (0, 3) (Pipeline.cache_stats ());
  merge [ (fm, 2); (ml, 3) ];
  Alcotest.(check (pair int int)) "same guards hit" (1, 3) (Pipeline.cache_stats ());
  merge [ (ml, 3); (fm, 2) ];
  Alcotest.(check (pair int int)) "order is irrelevant" (2, 3) (Pipeline.cache_stats ());
  merge [ (fm, 2); (ml, 3); (fm, 5) ];
  Alcotest.(check (pair int int)) "a later duplicate is ignored" (3, 3) (Pipeline.cache_stats ());
  merge [ (fm, 5); (fm, 2); (ml, 3) ];
  Alcotest.(check (pair int int)) "the first entry for a pair wins" (3, 4) (Pipeline.cache_stats ());
  merge [ (fm, 2); (ml, 3); (("leaf", "elsewhere"), 7) ];
  Alcotest.(check (pair int int)) "non-member pairs are ignored" (4, 4) (Pipeline.cache_stats ())

(* A merge's text depends only on its inputs, not on what the process merged
   before: two uncached compiles of async compose-post and a cache hit all
   print the same module (fresh local names restart per merge). *)
let test_merge_text_independent_of_history () =
  let wf =
    List.find
      (fun w -> w.Quilt_apps.Workflow.wf_name = "compose-post")
      (Quilt_apps.Deathstar.social_network ~async:true ())
  in
  let lookup = Quilt_apps.Workflow.lookup wf in
  let members = Quilt_apps.Workflow.fn_names wf and root = wf.Quilt_apps.Workflow.entry in
  let text r = Quilt_ir.Pp.to_string r.Pipeline.merged_module in
  let first = text (Pipeline.merge_group_uncached ~lookup ~members ~root ()) in
  let second = text (Pipeline.merge_group_uncached ~lookup ~members ~root ()) in
  Alcotest.(check string) "uncached merges print identically" first second;
  Pipeline.reset_cache ();
  ignore (Pipeline.merge_group ~lookup ~members ~root ());
  let cached = text (Pipeline.merge_group ~lookup ~members ~root ()) in
  Alcotest.(check (pair int int)) "the last merge was a hit" (1, 1) (Pipeline.cache_stats ());
  Alcotest.(check string) "a cache hit prints like a fresh compile" first cached

let test_cache_disabled_bypasses () =
  Pipeline.reset_cache ();
  Pipeline.set_cache_enabled false;
  Fun.protect
    ~finally:(fun () -> Pipeline.set_cache_enabled true)
    (fun () ->
      let fns = [ front "rust"; middle "rust"; leaf "rust" ] in
      let r1 = merge fns ~members:[ "middle"; "leaf" ] ~root:"middle" () in
      let r2 = merge fns ~members:[ "middle"; "leaf" ] ~root:"middle" () in
      Alcotest.(check (pair int int)) "no cache traffic" (0, 0) (Pipeline.cache_stats ());
      Alcotest.(check bool) "recompiled" true (r1 != r2);
      let out1, _ = run_merged r1 ~root:"middle" ~req:"{\"x\":5}" ~host:Interp.null_host in
      let out2, _ = run_merged r2 ~root:"middle" ~req:"{\"x\":5}" ~host:Interp.null_host in
      Alcotest.(check string) "identical results either way" out1 out2)

let suite =
  [
    ( "merge.pipeline",
      [
        Alcotest.test_case "two functions, same language" `Quick test_merge_two_same_language;
        Alcotest.test_case "three with shared callee" `Quick test_merge_three_with_shared_callee;
        Alcotest.test_case "cross-language pairs" `Quick test_merge_cross_language;
        Alcotest.test_case "all five languages" `Quick test_merge_all_five_languages;
        Alcotest.test_case "verifies and roundtrips" `Quick test_merged_module_verifies_and_roundtrips;
        Alcotest.test_case "cut edges stay remote" `Quick test_merge_keeps_cut_edges_remote;
        Alcotest.test_case "async fan-out" `Quick test_merge_async_fan_out_unconditional;
        Alcotest.test_case "rejects disconnected member" `Quick test_merge_rejects_disconnected_member;
        Alcotest.test_case "dce removes dead handlers" `Quick test_dce_removes_dead_handlers;
      ] );
    ( "merge.conditional",
      [
        Alcotest.test_case "below alpha: all local" `Quick test_conditional_invocation_below_alpha;
        Alcotest.test_case "above alpha: overflow remote" `Quick test_conditional_invocation_above_alpha;
        Alcotest.test_case "counter reset per request" `Quick test_conditional_counter_resets_per_request;
      ] );
    ( "merge.fanout",
      [
        Alcotest.test_case "fan_out_all equivalence" `Quick test_fan_out_all_merged_equivalence;
        Alcotest.test_case "fan_out_all guarded overflow" `Quick test_fan_out_all_guarded_overflow;
      ] );
    ( "merge.billing",
      [
        Alcotest.test_case "counts per function" `Quick test_billing_counts_per_function;
        Alcotest.test_case "off by default" `Quick test_billing_off_by_default;
      ] );
    ( "merge.cache",
      [
        Alcotest.test_case "hit on identical inputs" `Quick test_cache_hit_on_identical_inputs;
        Alcotest.test_case "miss on changed source" `Quick test_cache_miss_on_changed_source;
        Alcotest.test_case "keyed by guards" `Quick test_cache_keyed_by_guards;
        Alcotest.test_case "disabled bypasses" `Quick test_cache_disabled_bypasses;
        Alcotest.test_case "text independent of history" `Quick test_merge_text_independent_of_history;
      ] );
    ( "merge.sizes",
      [
        Alcotest.test_case "merged smaller than sum" `Quick test_sizes_merged_smaller_than_sum;
        Alcotest.test_case "cross-language pays runtimes" `Quick test_sizes_cross_language_pays_two_runtimes;
        Alcotest.test_case "http stub dropped" `Quick test_sizes_http_stub_dropped_when_fully_merged;
        Alcotest.test_case "breakdown sums" `Quick test_sizes_breakdown_sums;
      ] );
  ]
