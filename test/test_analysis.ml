(* Tests for the static-analysis framework (lib/ir/analysis.ml) and its
   three consumers: the strict verifier tier (one minimal ill-formed
   module per diagnostic code), the analysis-driven optimization passes,
   and the merge-interference analyzer. *)

open Quilt_ir

let parse = Parser.parse_module

let func m name =
  match Ir.find_func m name with
  | Some f -> f
  | None -> Alcotest.failf "function @%s missing" name

let diag_codes ?(strict = true) src =
  List.map (fun d -> d.Verify.code) (Verify.run ~strict (parse src))

let check_code ~code src =
  let got = diag_codes src in
  Alcotest.(check bool)
    (Printf.sprintf "%s reported (got: %s)" code (String.concat "," got))
    true (List.mem code got)

(* --- CFG and dominators --- *)

let loop_func_text =
  {|
module "loopy"
define i64 @f(i64 %n) {
entry:
  br label %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, %n
  cbr i1 %c, label %body, label %exit
body:
  %i2 = add i64 %i, 1
  br label %head
exit:
  ret i64 %i
}
|}

let test_dominators () =
  let cfg = Analysis.cfg_of_func (func (parse loop_func_text) "f") in
  let idx l = Hashtbl.find cfg.Analysis.index l in
  let idom = Analysis.dominators cfg in
  let entry, head, body, exit_ = (idx "entry", idx "head", idx "body", idx "exit") in
  Alcotest.(check int) "idom entry = entry" entry idom.(entry);
  Alcotest.(check int) "idom head = entry" entry idom.(head);
  Alcotest.(check int) "idom body = head" head idom.(body);
  Alcotest.(check int) "idom exit = head" head idom.(exit_);
  Alcotest.(check bool) "head dominates body" true (Analysis.dominates ~idom head body);
  Alcotest.(check bool) "head dominates exit" true (Analysis.dominates ~idom head exit_);
  Alcotest.(check bool) "body does not dominate exit" false (Analysis.dominates ~idom body exit_);
  Alcotest.(check bool) "dominates is reflexive" true (Analysis.dominates ~idom body body)

let test_cfg_edges () =
  let cfg = Analysis.cfg_of_func (func (parse loop_func_text) "f") in
  let idx l = Hashtbl.find cfg.Analysis.index l in
  Alcotest.(check (list int)) "head preds" [ idx "entry"; idx "body" ]
    (List.sort compare cfg.Analysis.preds.(idx "head"));
  Alcotest.(check (list int)) "head succs" [ idx "body"; idx "exit" ]
    (List.sort compare cfg.Analysis.succs.(idx "head"));
  Alcotest.(check bool) "all reachable" true (Array.for_all Fun.id cfg.Analysis.reachable)

let diamond_text =
  {|
module "diamond"
define i64 @f(i64 %x) {
entry:
  %s = add i64 %x, 1
  %c = icmp sgt i64 %s, 10
  cbr i1 %c, label %big, label %small
big:
  %m = mul i64 %s, 2
  br label %done
small:
  %m2 = mul i64 %s, 3
  br label %done
done:
  %r = phi i64 [ %m, %big ], [ %m2, %small ]
  ret i64 %r
}
|}

let test_liveness () =
  let cfg = Analysis.cfg_of_func (func (parse diamond_text) "f") in
  let idx l = Hashtbl.find cfg.Analysis.index l in
  let lv = Analysis.liveness cfg in
  let mem name set = Analysis.SS.mem name set in
  (* %s is defined in entry and used in both arms. *)
  Alcotest.(check bool) "s live out of entry" true (mem "s" lv.Analysis.live_out.(idx "entry"));
  Alcotest.(check bool) "s live into big" true (mem "s" lv.Analysis.live_in.(idx "big"));
  (* Phi sources are uses at the end of the matching predecessor, not in
     the phi's own block. *)
  Alcotest.(check bool) "m live out of big" true (mem "m" lv.Analysis.live_out.(idx "big"));
  Alcotest.(check bool) "m not live into done" false (mem "m" lv.Analysis.live_in.(idx "done"));
  Alcotest.(check bool) "m2 not live out of big" false (mem "m2" lv.Analysis.live_out.(idx "big"));
  (* %x is consumed by the first instruction of entry. *)
  Alcotest.(check bool) "x dead past entry" false (mem "x" lv.Analysis.live_out.(idx "entry"))

let test_write_only_slots () =
  let src =
    {|
module "slots"
define i64 @f() {
entry:
  %dead = alloca i64 8
  %live = alloca i64 8
  store i64 1, ptr %dead
  store i64 2, ptr %live
  %v = load i64, ptr %live
  ret i64 %v
}
|}
  in
  let slots = Analysis.write_only_slots (func (parse src) "f") in
  Alcotest.(check bool) "never-loaded slot found" true (Analysis.SS.mem "dead" slots);
  Alcotest.(check bool) "loaded slot kept" false (Analysis.SS.mem "live" slots)

(* --- Strict verifier: one minimal ill-formed module per code --- *)

let test_s001_dominance () =
  check_code ~code:"S001"
    {|
module "s001"
define i64 @f(i1 %c) {
entry:
  cbr i1 %c, label %a, label %b
a:
  %x = add i64 1, 2
  br label %b
b:
  %y = add i64 %x, 1
  ret i64 %y
}
|}

let test_s002_binop_types () =
  check_code ~code:"S002"
    {|
module "s002"
define i64 @f(ptr %p) {
entry:
  %x = add i64 %p, 1
  ret i64 %x
}
|}

let test_s003_icmp_types () =
  check_code ~code:"S003"
    {|
module "s003"
define i1 @f(ptr %p) {
entry:
  %c = icmp sgt i64 %p, 0
  ret i1 %c
}
|}

let test_s004_select_cond () =
  check_code ~code:"S004"
    {|
module "s004"
define i64 @f(i64 %n) {
entry:
  %x = select i1 %n, i64 1, 2
  ret i64 %x
}
|}

let test_s005_phi_incoming_type () =
  check_code ~code:"S005"
    {|
module "s005"
define i64 @f(ptr %p) {
entry:
  br label %b
b:
  %x = phi i64 [ %p, %entry ]
  ret i64 %x
}
|}

let test_s006_memory_types () =
  check_code ~code:"S006"
    {|
module "s006"
define i64 @f(i64 %n) {
entry:
  %v = load i64, ptr %n
  ret i64 %v
}
|}

let test_s007_phi_pred_mismatch () =
  check_code ~code:"S007"
    {|
module "s007"
define i64 @f(i1 %c) {
entry:
  cbr i1 %c, label %a, label %b
a:
  br label %done
b:
  br label %done
done:
  %r = phi i64 [ 1, %a ]
  ret i64 %r
}
|}

let test_s008_entry_phi () =
  check_code ~code:"S008"
    {|
module "s008"
define i64 @f() {
entry:
  %x = phi i64 [ 0, %entry ]
  ret i64 %x
}
|}

let test_s009_operand_types () =
  check_code ~code:"S009"
    {|
module "s009"
define i64 @f(i64 %n) {
entry:
  cbr i1 %n, label %a, label %b
a:
  ret i64 1
b:
  ret i64 2
}
|}

let test_w001_unreachable_block () =
  let src =
    {|
module "w001"
define i64 @f() {
entry:
  ret i64 1
dead:
  ret i64 2
}
|}
  in
  let diags = Verify.run ~strict:true (parse src) in
  let w = List.find_opt (fun d -> d.Verify.code = "W001") diags in
  (match w with
  | Some d -> Alcotest.(check bool) "W001 is a warning" true (d.Verify.severity = Verify.Warning)
  | None -> Alcotest.fail "W001 not reported");
  (* Warnings never appear without ~strict. *)
  Alcotest.(check (list string)) "base tier silent" []
    (List.map (fun d -> d.Verify.code) (Verify.run (parse src)))

let test_w002_dead_store () =
  let src =
    {|
module "w002"
define i64 @f() {
entry:
  %p = alloca i64 8
  store i64 1, ptr %p
  ret i64 0
}
|}
  in
  let diags = Verify.run ~strict:true (parse src) in
  match List.find_opt (fun d -> d.Verify.code = "W002") diags with
  | Some d -> Alcotest.(check bool) "W002 is a warning" true (d.Verify.severity = Verify.Warning)
  | None -> Alcotest.fail "W002 not reported"

let test_v010_ret_mismatch () =
  check_code ~code:"V010"
    {|
module "v010a"
define void @f() {
entry:
  ret i64 1
}
|};
  check_code ~code:"V010"
    {|
module "v010b"
define i64 @f() {
entry:
  ret void
}
|}

let test_v013_void_call_dst () =
  check_code ~code:"V013"
    {|
module "v013"
declare void @g()
define i64 @f() {
entry:
  %x = call void @g()
  ret i64 0
}
|}

let test_diagnostics_carry_block () =
  let diags =
    Verify.run ~strict:true
      (parse
         {|
module "loc"
define i64 @f(i1 %c) {
entry:
  cbr i1 %c, label %a, label %b
a:
  %x = add i64 1, 2
  br label %b
b:
  %y = add i64 %x, 1
  ret i64 %y
}
|})
  in
  match List.find_opt (fun d -> d.Verify.code = "S001") diags with
  | Some d ->
      Alcotest.(check string) "function" "f" d.Verify.where;
      Alcotest.(check (option string)) "block" (Some "b") d.Verify.block
  | None -> Alcotest.fail "S001 not reported"

(* --- Merge-interference analyzer --- *)

let interference_codes src = List.map (fun d -> d.Verify.code) (Verify.interference (parse src))

let test_m001_symbol_collision () =
  let codes =
    interference_codes
      {|
module "m001"
@clash = global i64 0
define i64 @clash() {
entry:
  ret i64 0
}
|}
  in
  Alcotest.(check bool) "M001 reported" true (List.mem "M001" codes)

let test_m002_shared_global_writes () =
  let src =
    {|
module "m002"
@state = global i64 0
define i64 @a__handler(ptr %req) {
entry:
  store i64 1, ptr @state
  ret i64 0
}
define i64 @b__local(ptr %req) {
entry:
  store i64 2, ptr @state
  ret i64 0
}
|}
  in
  let diags = Verify.interference (parse src) in
  match List.find_opt (fun d -> d.Verify.code = "M002") diags with
  | Some d -> Alcotest.(check bool) "M002 is a warning" true (d.Verify.severity = Verify.Warning)
  | None -> Alcotest.fail "M002 not reported"

let test_m003_abi_mismatch () =
  let codes =
    interference_codes
      {|
module "m003"
define i64 @callee(i64 %x) lang "rust" {
entry:
  ret i64 %x
}
define i64 @caller(ptr %p) lang "c" {
entry:
  %r = call i64 @callee(ptr %p)
  ret i64 %r
}
|}
  in
  Alcotest.(check bool) "M003 reported" true (List.mem "M003" codes)

(* --- Optimization passes (unit; fuzz pins them end to end) --- *)

let test_sccp_folds_branch () =
  let m =
    parse
      {|
module "sccp"
define i64 @f() {
entry:
  %a = add i64 2, 3
  %c = icmp sgt i64 %a, 4
  cbr i1 %c, label %t, label %e
t:
  ret i64 %a
e:
  ret i64 0
}
|}
  in
  let f = func (Pass_sccp.run m) "f" in
  Alcotest.(check int) "dead arm dropped" 2 (List.length f.Ir.blocks);
  let printed = Pp.to_string { m with Ir.funcs = [ f ] } in
  Alcotest.(check bool) "constant propagated into ret" true
    (let has_sub s sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     has_sub printed "ret i64 5")

let test_livedce_drops_phi_cycle () =
  let m =
    parse
      {|
module "livedce"
define i64 @f(i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %b ]
  %dead = phi i64 [ 1, %entry ], [ %d2, %b ]
  %c = icmp slt i64 %i, %n
  cbr i1 %c, label %b, label %x
b:
  %d2 = mul i64 %dead, 3
  %i2 = add i64 %i, 1
  br label %h
x:
  ret i64 %i
}
|}
  in
  let before = Ir.instr_count m in
  let m' = Pass_livedce.run m in
  Alcotest.(check int) "dead phi cycle retired" (before - 2) (Ir.instr_count m');
  Alcotest.(check (list string)) "still strict-clean" []
    (List.map (fun d -> d.Verify.code)
       (List.filter (fun d -> d.Verify.severity = Verify.Error) (Verify.run ~strict:true m')))

let test_jumpthread_coalesces () =
  let m =
    parse
      {|
module "jt"
define i64 @f() {
entry:
  br label %a
a:
  %x = add i64 1, 2
  br label %b
b:
  ret i64 %x
}
|}
  in
  let f = func (Pass_jumpthread.run m) "f" in
  Alcotest.(check int) "straight-line chain coalesced" 1 (List.length f.Ir.blocks)

let test_shiminline_flattens () =
  let m =
    parse
      {|
module "inline"
define i64 @c2callee_inner(i64 %x) {
entry:
  %y = add i64 %x, 1
  ret i64 %y
}
define i64 @caller2c_c_outer(i64 %x) {
entry:
  %y = call i64 @c2callee_inner(i64 %x)
  ret i64 %y
}
define i64 @main(i64 %n) {
entry:
  %r = call i64 @caller2c_c_outer(i64 %n)
  %r2 = call i64 @caller2c_c_outer(i64 %r)
  ret i64 %r2
}
|}
  in
  let m' = Pass_shiminline.run m in
  let calls_in f =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (function Ir.Call { callee; _ } -> Some callee | _ -> None)
          b.Ir.instrs)
      f.Ir.blocks
  in
  Alcotest.(check (list string)) "all shim calls flattened" [] (calls_in (func m' "main"));
  Alcotest.(check (list string)) "no errors after inlining" []
    (List.map (fun d -> d.Verify.code)
       (List.filter (fun d -> d.Verify.severity = Verify.Error) (Verify.run ~strict:true m')));
  (* The exact arithmetic survives: two increments chained onto %n. *)
  let f = func m' "main" in
  Alcotest.(check int) "two spliced adds" 2 (List.length (List.hd f.Ir.blocks).Ir.instrs)

let test_dce_fixed_point () =
  let m =
    parse
      {|
module "dce"
@gused = global i64 0
@gdead = global i64 0
define i64 @main() {
entry:
  %r = call i64 @a()
  ret i64 %r
}
define i64 @a() {
entry:
  %r = call i64 @b()
  ret i64 %r
}
define i64 @b() {
entry:
  %v = load i64, ptr @gused
  ret i64 %v
}
define i64 @cyc1() {
entry:
  %r = call i64 @cyc2()
  ret i64 %r
}
define i64 @cyc2() {
entry:
  %r = call i64 @cyc1()
  ret i64 %r
}
|}
  in
  let m' = Pass_dce.run ~roots:[ "main" ] m in
  let names = List.sort compare (List.map (fun (f : Ir.func) -> f.Ir.fname) m'.Ir.funcs) in
  (* Transitive liveness is a fixed point: the whole root chain survives,
     the mutually-recursive island (live only through itself) does not. *)
  Alcotest.(check (list string)) "root chain kept, dead cycle dropped" [ "a"; "b"; "main" ] names;
  Alcotest.(check (list string)) "dead global dropped" [ "gused" ]
    (List.map (fun (g : Ir.global) -> g.Ir.gname) m'.Ir.globals)

(* --- Incremental verification --- *)

module Pipeline = Quilt_merge.Pipeline
module Workflow = Quilt_apps.Workflow

let bundled_workflows () =
  Quilt_apps.Deathstar.all ~async:false ()
  @ Quilt_apps.Deathstar.all ~async:true ()
  @ Quilt_apps.Special.
      [
        modified_nearby_cinema ();
        noop ();
        cross_language ();
        fan_out ~callee_mem_mb:14 ();
        routed ();
      ]

(* The liveness DCE is the pipeline's only instruction-level DCE and runs
   on every merge, optimized or not: an unoptimized merge leaves it nothing
   to remove. *)
let test_unoptimized_merge_is_livedce_fixpoint () =
  List.iter
    (fun (wf : Workflow.t) ->
      let m =
        (Pipeline.merge_group_uncached ~lookup:(Workflow.lookup wf)
           ~members:(Workflow.fn_names wf) ~root:wf.Workflow.entry ~optimize:false ())
          .Pipeline.merged_module
      in
      Alcotest.(check string)
        (wf.Workflow.wf_name ^ ": livedce changes nothing")
        (Pp.to_string m)
        (Pp.to_string (Pass_livedce.run m)))
    (bundled_workflows ())

(* A pass that changes nothing hands back its input: run on its own output
   over every bundled merge, each pass returns the same physical module,
   function for function.  The unoptimized merges still hold the ABI shims,
   so shim inlining does real work in its first run there. *)
let test_passes_return_unchanged_input () =
  let passes =
    [
      ("delayhttp", Pass_delayhttp.run);
      ("simplify", Pass_simplify.run);
      ("shiminline", Pass_shiminline.run);
      ("sccp", Pass_sccp.run);
      ("jumpthread", Pass_jumpthread.run);
      ("livedce", Pass_livedce.run);
    ]
  in
  List.iter
    (fun (wf : Workflow.t) ->
      List.iter
        (fun optimize ->
          let report =
            Pipeline.merge_group_uncached ~lookup:(Workflow.lookup wf)
              ~members:(Workflow.fn_names wf) ~root:wf.Workflow.entry ~optimize ()
          in
          let m = report.Pipeline.merged_module in
          let what = Printf.sprintf "%s (optimize=%b)" wf.Workflow.wf_name optimize in
          let same name m1 m2 =
            List.iter2
              (fun (f1 : Ir.func) (f2 : Ir.func) ->
                if f1 != f2 then Alcotest.failf "%s: %s rebuilt unchanged @%s" what name f1.Ir.fname)
              m1.Ir.funcs m2.Ir.funcs;
            if m1 != m2 then Alcotest.failf "%s: %s rebuilt an unchanged module" what name
          in
          List.iter
            (fun (name, run) ->
              let once = run m in
              same name once (run once))
            (("dce", Pass_dce.run ~roots:[ report.Pipeline.entry ]) :: passes);
          (* Every member's sites were rewritten by the merge, and no
             function calls a service that does not exist. *)
          List.iter
            (fun service ->
              let m', n =
                Pass_mergefunc.rewrite_call_sites m ~ids:(ref 0) ~service
                  ~local_name:(service ^ "__local") ~callee_lang:"rust"
                  ~mode:(fun ~caller:_ -> Pass_mergefunc.Unconditional)
                  ~reset_in:(Some report.Pipeline.entry)
              in
              Alcotest.(check int) (what ^ ": no site for " ^ service) 0 n;
              same ("rewrite_call_sites " ^ service) m m')
            ("no-such-service" :: Workflow.fn_names wf))
        [ true; false ])
    (bundled_workflows ())

(* [m] with one called, defined function's return type flipped: the
   function itself now fails V010 and its unchanged callers fail V008, so a
   verifier that reused stale diagnostics would miss both. *)
let corrupt_one (m : Ir.modul) =
  let defined name =
    match Ir.find_func m name with Some f -> not (Ir.is_declaration f) | None -> false
  in
  let callees =
    List.concat_map
      (fun (f : Ir.func) ->
        List.concat_map
          (fun (b : Ir.block) ->
            List.filter_map
              (function Ir.Call { callee; _ } when defined callee -> Some callee | _ -> None)
              b.Ir.instrs)
          f.Ir.blocks)
      m.Ir.funcs
  in
  match callees with
  | [] -> None
  | victim :: _ ->
      let flip = function Ir.Void -> Ir.I64 | Ir.I64 -> Ir.Ptr | _ -> Ir.Void in
      Some
        {
          m with
          Ir.funcs =
            List.map
              (fun (f : Ir.func) ->
                if f.Ir.fname = victim then { f with Ir.ret_ty = flip f.Ir.ret_ty } else f)
              m.Ir.funcs;
        }

(* Every stage module the pipeline produces, in order, fed through one
   incremental verifier, must get exactly the diagnostics (warnings
   included) a from-scratch strict run gives.  Each stage is followed by a
   corrupted copy of itself, so reuse is exercised against real findings
   too, not only against clean modules. *)
let test_incremental_matches_scratch_on_pipeline () =
  let merge ?guard ?billing ?optimize () ~on_stage (wf : Workflow.t) =
    let members = Workflow.fn_names wf in
    (* [guard]: that α on every ordered member pair. *)
    let guards =
      Option.map
        (fun alpha -> List.concat_map (fun a -> List.map (fun b -> ((a, b), alpha)) members) members)
        guard
    in
    ignore
      (Pipeline.merge_group_uncached ~on_stage ~lookup:(Workflow.lookup wf) ~members
         ~root:wf.Workflow.entry ?guards ?billing ?optimize ())
  in
  let variants =
    [
      ("default", merge ());
      ("guarded+billing", merge ~guard:2 ~billing:true ());
      ("unoptimized", merge ~optimize:false ());
    ]
  in
  let stages = ref 0 and corrupted = ref 0 in
  List.iter
    (fun (wf : Workflow.t) ->
      List.iter
        (fun (variant, merge) ->
          let check = Verify.incremental ~strict:true () in
          let same ~stage m =
            if check m <> Verify.run ~strict:true m then
              Alcotest.failf "%s (%s), stage %s: incremental diagnostics differ from a full run"
                wf.Workflow.wf_name variant stage
          in
          let on_stage ~stage m =
            incr stages;
            same ~stage m;
            Option.iter
              (fun bad ->
                incr corrupted;
                same ~stage:(stage ^ " (corrupted)") bad)
              (corrupt_one m)
          in
          merge ~on_stage wf)
        variants)
    (bundled_workflows ());
  Alcotest.(check bool) "stages were compared" true (!stages > 100);
  Alcotest.(check bool) "corrupted stages were compared" true (!corrupted > 100)

let caller_module =
  parse
    {|
module "inc"
@g = global i64 0
declare i64 @callee(i64)
define i64 @caller(i64 %x) {
entry:
  %v = load i64, ptr @g
  %r = call i64 @callee(i64 %x)
  %s = add i64 %r, %v
  ret i64 %s
}
|}

(* The caller record stays physically the same in every stage below; only
   what it refers to changes, so every finding comes from a probe. *)
let test_incremental_invalidation () =
  let caller = func caller_module "caller" in
  let callee sig_text = Parser.parse_func ("declare " ^ sig_text) in
  let ok_callee = callee "i64 @callee(i64)" in
  let stage ?(globals = caller_module.Ir.globals) funcs = { caller_module with Ir.globals; funcs } in
  let stages =
    [
      ("clean", stage [ caller; ok_callee ], []);
      ("arity", stage [ caller; callee "i64 @callee(i64, i64)" ], [ "V006" ]);
      ("argument type", stage [ caller; callee "i64 @callee(ptr)" ], [ "V007" ]);
      ("return type", stage [ caller; callee "ptr @callee(i64)" ], [ "V008" ]);
      ("clean again", stage [ caller; ok_callee ], []);
      ("global removed", stage ~globals:[] [ caller; ok_callee ], [ "V004" ]);
      ("callee removed", stage [ caller ], [ "V005" ]);
      ("duplicate symbol", stage [ caller; ok_callee; caller ], [ "V012" ]);
      ("clean at last", stage [ caller; ok_callee ], []);
    ]
  in
  let check = Verify.incremental ~strict:true () in
  List.iter
    (fun (name, m, codes) ->
      let got = check m in
      Alcotest.(check bool) (name ^ ": equals a full run") true (got = Verify.run ~strict:true m);
      Alcotest.(check (list string))
        (name ^ ": errors")
        codes
        (List.sort_uniq compare
           (List.filter_map
              (fun d -> if d.Verify.severity = Verify.Error then Some d.Verify.code else None)
              got)))
    stages

let test_stage_checker_names_breaking_stage () =
  let good = caller_module in
  let broken =
    parse
      {|
module "inc"
@g = global i64 0
declare i64 @callee(i64)
define i64 @caller(i64 %x) {
entry:
  %s = add i64 %r, 1
  %r = call i64 @callee(i64 %x)
  ret i64 %s
}
|}
  in
  let check = Verify.stage_checker ~strict:true () in
  check ~stage:"one" good;
  check ~stage:"two" { good with Ir.mname = "renamed" };
  let raises_at stage m =
    match check ~stage m with
    | () -> Alcotest.failf "stage %s: broken function not reported" stage
    | exception Failure msg ->
        let prefix = "Verify[" ^ stage ^ "]: S001" in
        Alcotest.(check string) "names the stage" prefix
          (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  in
  raises_at "three" broken;
  (* Still broken, and unchanged: the reused diagnostics name the new stage. *)
  raises_at "four" { broken with Ir.mname = "again" };
  check ~stage:"five" good

let suite =
  [
    ( "analysis.incremental",
      [
        Alcotest.test_case "pipeline stages match full runs" `Quick
          test_incremental_matches_scratch_on_pipeline;
        Alcotest.test_case "probe changes invalidate reuse" `Quick test_incremental_invalidation;
        Alcotest.test_case "stage checker names the stage" `Quick
          test_stage_checker_names_breaking_stage;
      ] );
    ( "analysis.cfg",
      [
        Alcotest.test_case "dominator tree (CHK)" `Quick test_dominators;
        Alcotest.test_case "pred/succ/reachability" `Quick test_cfg_edges;
        Alcotest.test_case "backward liveness with phi edges" `Quick test_liveness;
        Alcotest.test_case "write-only slots" `Quick test_write_only_slots;
      ] );
    ( "analysis.strict",
      [
        Alcotest.test_case "S001 dominance" `Quick test_s001_dominance;
        Alcotest.test_case "S002 binop typing" `Quick test_s002_binop_types;
        Alcotest.test_case "S003 icmp typing" `Quick test_s003_icmp_types;
        Alcotest.test_case "S004 select condition" `Quick test_s004_select_cond;
        Alcotest.test_case "S005 phi incoming typing" `Quick test_s005_phi_incoming_type;
        Alcotest.test_case "S006 memory typing" `Quick test_s006_memory_types;
        Alcotest.test_case "S007 phi/CFG agreement" `Quick test_s007_phi_pred_mismatch;
        Alcotest.test_case "S008 entry-block phi" `Quick test_s008_entry_phi;
        Alcotest.test_case "S009 terminator operand typing" `Quick test_s009_operand_types;
        Alcotest.test_case "W001 unreachable block" `Quick test_w001_unreachable_block;
        Alcotest.test_case "W002 dead store" `Quick test_w002_dead_store;
        Alcotest.test_case "V010 ret/return-type disagreement" `Quick test_v010_ret_mismatch;
        Alcotest.test_case "V013 void call binds a value" `Quick test_v013_void_call_dst;
        Alcotest.test_case "diagnostics carry fn+block" `Quick test_diagnostics_carry_block;
      ] );
    ( "analysis.interference",
      [
        Alcotest.test_case "M001 symbol collision" `Quick test_m001_symbol_collision;
        Alcotest.test_case "M002 cross-member global writes" `Quick test_m002_shared_global_writes;
        Alcotest.test_case "M003 ABI type mismatch" `Quick test_m003_abi_mismatch;
      ] );
    ( "analysis.passes",
      [
        Alcotest.test_case "sccp folds constant branches" `Quick test_sccp_folds_branch;
        Alcotest.test_case "livedce retires dead phi cycles" `Quick test_livedce_drops_phi_cycle;
        Alcotest.test_case "jumpthread coalesces chains" `Quick test_jumpthread_coalesces;
        Alcotest.test_case "shim inlining flattens wrappers" `Quick test_shiminline_flattens;
        Alcotest.test_case "symbol DCE is a fixed point" `Quick test_dce_fixed_point;
        Alcotest.test_case "unoptimized merges are livedce fixpoints" `Quick
          test_unoptimized_merge_is_livedce_fixpoint;
        Alcotest.test_case "passes hand back unchanged input" `Quick
          test_passes_return_unchanged_input;
      ] );
  ]
