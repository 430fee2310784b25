(* Tests for quilt_ir: printer/parser round-trip, verifier, linker,
   execution basics on the QVM, and the individual passes. *)

open Quilt_ir
module Json = Quilt_util.Json

let sample_module_text =
  {|
module "sample"

@msg = constant str "hello\00" lang "c"
@counter = global i64 0

define i64 @addmul(i64 %x, i64 %y) lang "c" {
entry:
  %s = add i64 %x, %y
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

declare ptr @external_fn(ptr, i64)
|}

let parse_sample () = Parser.parse_module sample_module_text

let test_parse_basic () =
  let m = parse_sample () in
  Alcotest.(check string) "module name" "sample" m.Ir.mname;
  Alcotest.(check int) "globals" 2 (List.length m.Ir.globals);
  Alcotest.(check int) "funcs" 2 (List.length m.Ir.funcs);
  match Ir.find_func m "addmul" with
  | Some f ->
      Alcotest.(check int) "blocks" 4 (List.length f.Ir.blocks);
      Alcotest.(check bool) "lang tag" true (f.Ir.lang = Some "c")
  | None -> Alcotest.fail "addmul missing"

let test_pp_parse_roundtrip () =
  let m = parse_sample () in
  let printed = Pp.to_string m in
  let reparsed = Parser.parse_module printed in
  Alcotest.(check string) "printer-stable" printed (Pp.to_string reparsed)

let test_parser_errors () =
  let bad =
    [
      "define i64 @f( {";
      "define i64 @f() {\nentry:\n  ret i64\n}";
      "@g = constant str \"unterminated";
      "define i64 @f() {\nentry:\n  %x = frobnicate i64 1, 2\n  ret i64 %x\n}";
      "define i64 @f() {\n  ret i64 1\n}" (* instruction outside block *);
    ]
  in
  List.iter
    (fun src ->
      match Parser.parse_module src with
      | exception Parser.Error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected parse error on %S" src))
    bad

let test_string_escapes_roundtrip () =
  let m =
    {
      Ir.mname = "esc";
      globals =
        [ { Ir.gname = "s"; ginit = Ir.Gstr "a\"b\\c\nd\000e\xfff"; gconst = true; glang = None } ];
      funcs = [];
    }
  in
  let m' = Parser.parse_module (Pp.to_string m) in
  Alcotest.(check (option string)) "bytes preserved" (Some "a\"b\\c\nd\000e\xfff")
    (match (List.hd m'.Ir.globals).Ir.ginit with Ir.Gstr s -> Some s | _ -> None)

(* --- Verify --- *)

let test_verify_ok () =
  Alcotest.(check int) "no diagnostics" 0 (List.length (Verify.run (parse_sample ())))

let test_verify_catches_bad_label () =
  let src = "define void @f() {\nentry:\n  br label %nowhere\n}" in
  let m = Parser.parse_module src in
  Alcotest.(check bool) "bad label" true (Verify.run m <> [])

let test_verify_catches_undefined_local () =
  let src = "define i64 @f() {\nentry:\n  %y = add i64 %ghost, 1\n  ret i64 %y\n}" in
  Alcotest.(check bool) "undefined local" true (Verify.run (Parser.parse_module src) <> [])

let test_verify_catches_unknown_callee () =
  let src = "define void @f() {\nentry:\n  call void @no_such_fn()\n  ret void\n}" in
  Alcotest.(check bool) "unknown callee" true (Verify.run (Parser.parse_module src) <> [])

let test_verify_accepts_intrinsics () =
  let src = "define void @f() {\nentry:\n  call void @quilt_burn_cpu(i64 5)\n  ret void\n}" in
  Alcotest.(check int) "intrinsic ok" 0 (List.length (Verify.run (Parser.parse_module src)))

let test_verify_catches_signature_mismatch () =
  let src = "define void @f() {\nentry:\n  call void @quilt_burn_cpu(i64 5, i64 6)\n  ret void\n}" in
  Alcotest.(check bool) "arity" true (Verify.run (Parser.parse_module src) <> [])

let test_verify_catches_duplicate_symbol () =
  let src = "define void @f() {\nentry:\n  ret void\n}\ndefine void @f() {\nentry:\n  ret void\n}" in
  Alcotest.(check bool) "duplicate" true (Verify.run (Parser.parse_module src) <> [])

let test_verify_catches_entry_not_first () =
  let src = "define void @f() {\nstart:\n  br label %entry\nentry:\n  ret void\n}" in
  Alcotest.(check bool) "first block must be entry" true (Verify.run (Parser.parse_module src) <> [])

let test_verify_catches_double_definition_of_local () =
  let src = "define i64 @f() {\nentry:\n  %x = add i64 1, 2\n  %x = add i64 3, 4\n  ret i64 %x\n}" in
  Alcotest.(check bool) "local defined twice" true (Verify.run (Parser.parse_module src) <> [])

let test_verify_catches_ret_type_mismatch () =
  let src = "define i64 @f() {\nentry:\n  ret void\n}" in
  Alcotest.(check bool) "ret void in i64 fn" true (Verify.run (Parser.parse_module src) <> [])

let test_parser_negative_and_large_ints () =
  let src = "define i64 @f() {\nentry:\n  %a = add i64 -42, 9223372036854775807\n  ret i64 %a\n}" in
  let m = Parser.parse_module src in
  match Ir.find_func m "f" with
  | Some { Ir.blocks = [ { Ir.instrs = [ Ir.Binop { lhs = Ir.Const (Ir.Cint (_, l)); rhs = Ir.Const (Ir.Cint (_, r)); _ } ]; _ } ]; _ } ->
      Alcotest.(check int64) "negative literal" (-42L) l;
      Alcotest.(check int64) "max_int64 literal" Int64.max_int r
  | _ -> Alcotest.fail "unexpected parse"

(* --- Linker --- *)

let mk_fn name body_ret =
  Parser.parse_func (Printf.sprintf "define i64 @%s() {\nentry:\n  ret i64 %d\n}" name body_ret)

let test_linker_merges_decl_and_def () =
  let a = { Ir.mname = "a"; globals = []; funcs = [ mk_fn "f" 1 ] } in
  let b =
    { Ir.mname = "b"; globals = []; funcs = [ Parser.parse_func "declare i64 @f()" ] }
  in
  let l = Linker.link a b in
  Alcotest.(check int) "one symbol" 1 (List.length l.Ir.funcs);
  Alcotest.(check bool) "kept definition" true (not (Ir.is_declaration (List.hd l.Ir.funcs)))

let test_linker_rejects_conflicting_defs () =
  let a = { Ir.mname = "a"; globals = []; funcs = [ mk_fn "f" 1 ] } in
  let b = { Ir.mname = "b"; globals = []; funcs = [ mk_fn "f" 2 ] } in
  match Linker.link a b with
  | exception Linker.Link_error _ -> ()
  | _ -> Alcotest.fail "expected link error"

let test_linker_dedups_identical () =
  let a = { Ir.mname = "a"; globals = []; funcs = [ mk_fn "rt" 7 ] } in
  let b = { Ir.mname = "b"; globals = []; funcs = [ mk_fn "rt" 7 ] } in
  let l = Linker.link ~dedup_identical:true a b in
  Alcotest.(check int) "deduplicated" 1 (List.length l.Ir.funcs)

let test_linker_merges_equal_globals () =
  let g = { Ir.gname = "s"; ginit = Ir.Gstr "x"; gconst = true; glang = None } in
  let a = { Ir.mname = "a"; globals = [ g ]; funcs = [] } in
  let b = { Ir.mname = "b"; globals = [ g ]; funcs = [] } in
  Alcotest.(check int) "one global" 1 (List.length (Linker.link a b).Ir.globals)

(* --- Interpreter --- *)

let test_interp_arith_and_control () =
  let src =
    {|
define void @main__handler() {
entry:
  %c = call ptr @quilt_get_req()
  %r = call ptr @c_str_from_c(ptr %c)
  %n = call i64 @c_atoi(ptr %r)
  %big = icmp sgt i64 %n, 10
  cbr i1 %big, label %yes, label %no
yes:
  %a = mul i64 %n, 2
  br label %done
no:
  %b = add i64 %n, 100
  br label %done
done:
  %v = phi i64 [ %a, %yes ], [ %b, %no ]
  %s = call ptr @c_itoa(i64 %v)
  %sc = call ptr @c_str_to_c(ptr %s)
  call void @quilt_send_res(ptr %sc)
  ret void
}
|}
  in
  let m = Parser.parse_module src in
  (match Vm.run_handler ~host:Interp.null_host m ~fname:"main__handler" ~req:"20" with
  | Ok (res, _) -> Alcotest.(check string) "20*2" "40" res
  | Error e -> Alcotest.fail e);
  match Vm.run_handler ~host:Interp.null_host m ~fname:"main__handler" ~req:"3" with
  | Ok (res, _) -> Alcotest.(check string) "3+100" "103" res
  | Error e -> Alcotest.fail e

let test_interp_memory_ops () =
  let src =
    {|
define void @main__handler() {
entry:
  %c = call ptr @quilt_get_req()
  %buf = alloca i64 16
  store i64 777, ptr %buf
  %p2 = gep ptr %buf, i64 8
  store i64 1, ptr %p2
  %v = load i64, ptr %buf
  %w = load i64, ptr %p2
  %sum = add i64 %v, %w
  %s = call ptr @c_itoa(i64 %sum)
  %sc = call ptr @c_str_to_c(ptr %s)
  call void @quilt_send_res(ptr %sc)
  ret void
}
|}
  in
  let m = Parser.parse_module src in
  match Vm.run_handler ~host:Interp.null_host m ~fname:"main__handler" ~req:"x" with
  | Ok (res, _) -> Alcotest.(check string) "memory" "778" res
  | Error e -> Alcotest.fail e

let test_interp_out_of_bounds_traps () =
  let src =
    {|
define void @main__handler() {
entry:
  %buf = alloca i64 8
  %p = gep ptr %buf, i64 100
  store i64 1, ptr %p
  ret void
}
|}
  in
  let m = Parser.parse_module src in
  match Vm.run_handler ~host:Interp.null_host m ~fname:"main__handler" ~req:"x" with
  | Ok _ -> Alcotest.fail "expected memory fault"
  | Error e -> Alcotest.(check bool) "memory fault" true (String.length e > 0)

let test_interp_infinite_loop_runs_out_of_fuel () =
  let src = "define void @main__handler() {\nentry:\n  br label %entry\n}" in
  (* A self-loop via terminator only: needs at least one instruction to
     consume fuel, so add one. *)
  let src =
    if true then
      "define void @main__handler() {\nentry:\n  %x = add i64 1, 1\n  br label %loop\nloop:\n  %y = add i64 1, 1\n  br label %loop\n}"
    else src
  in
  let m = Parser.parse_module src in
  match Vm.run_handler ~fuel:10_000 ~host:Interp.null_host m ~fname:"main__handler" ~req:"x" with
  | Ok _ -> Alcotest.fail "expected fuel exhaustion"
  | Error e -> Alcotest.(check bool) "mentions fuel" true (e = "out of fuel")

let test_interp_work_intrinsics () =
  let src =
    {|
define void @main__handler() {
entry:
  call void @quilt_burn_cpu(i64 1500)
  call void @quilt_sleep_io(i64 2500)
  call void @quilt_use_mem(i64 64)
  call void @quilt_use_mem(i64 32)
  %c = call ptr @quilt_get_req()
  call void @quilt_send_res(ptr %c)
  ret void
}
|}
  in
  let m = Parser.parse_module src in
  match Vm.run_handler ~host:Interp.null_host m ~fname:"main__handler" ~req:"ok" with
  | Ok (res, stats) ->
      Alcotest.(check string) "echo" "ok" res;
      Alcotest.(check (float 1e-9)) "cpu" 1500.0 stats.Interp.cpu_us;
      Alcotest.(check (float 1e-9)) "io" 2500.0 stats.Interp.io_us;
      Alcotest.(check (float 1e-9)) "peak mem" 64.0 stats.Interp.peak_mem_mb
  | Error e -> Alcotest.fail e

let test_interp_remote_requires_curl_init () =
  let src =
    {|
@svc = constant str "other"
define void @main__handler() {
entry:
  %c = call ptr @quilt_get_req()
  %r = call ptr @quilt_sync_inv(ptr @svc, ptr %c)
  call void @quilt_send_res(ptr %r)
  ret void
}
|}
  in
  let m = Parser.parse_module src in
  (match Vm.run_handler ~host:Interp.echo_host m ~fname:"main__handler" ~req:"{}" with
  | Ok _ -> Alcotest.fail "expected trap: HTTP stack not initialised"
  | Error e -> Alcotest.(check bool) "trap mentions init" true (String.length e > 0));
  (* With an eager init it works and the stats show it. *)
  let src_ok =
    {|
@svc = constant str "other"
define void @main__handler() {
entry:
  call void @quilt_curl_global_init()
  %c = call ptr @quilt_get_req()
  %r = call ptr @quilt_sync_inv(ptr @svc, ptr %c)
  call void @quilt_send_res(ptr %r)
  ret void
}
|}
  in
  let m = Parser.parse_module src_ok in
  match Vm.run_handler ~host:Interp.echo_host m ~fname:"main__handler" ~req:"{\"a\":1}" with
  | Ok (res, stats) ->
      Alcotest.(check bool) "curl eager" true stats.Interp.curl_loaded_eagerly;
      Alcotest.(check int) "one remote call" 1 (List.length stats.Interp.remote_sync);
      let parsed = Json.of_string res in
      Alcotest.(check (option string)) "routed to callee" (Some "other")
        Json.(to_string_opt (member "echo" parsed))
  | Error e -> Alcotest.fail e

let test_interp_select_and_shifts () =
  let src =
    {|
define void @main__handler() {
entry:
  %c = call ptr @quilt_get_req()
  %x = shl i64 3, 4
  %y = lshr i64 %x, 2
  %big = icmp sgt i64 %y, 10
  %z = select i1 %big, i64 %y, 0
  %s = call ptr @c_itoa(i64 %z)
  %sc = call ptr @c_str_to_c(ptr %s)
  call void @quilt_send_res(ptr %sc)
  ret void
}
|}
  in
  let m = Parser.parse_module src in
  match Vm.run_handler ~host:Interp.null_host m ~fname:"main__handler" ~req:"x" with
  | Ok (res, _) -> Alcotest.(check string) "3<<4>>2 = 12" "12" res
  | Error e -> Alcotest.fail e

let test_interp_division_by_zero_traps () =
  let src =
    "define void @main__handler() {\nentry:\n  %q = sdiv i64 10, 0\n  ret void\n}"
  in
  match Vm.run_handler ~host:Interp.null_host (Parser.parse_module src) ~fname:"main__handler" ~req:"" with
  | Ok _ -> Alcotest.fail "expected trap"
  | Error e -> Alcotest.(check string) "division trap" "division by zero" e

let test_interp_billing_native () =
  let src =
    {|
@bill.alpha = constant str "alpha"
define void @main__handler() {
entry:
  call void @quilt_bill(ptr @bill.alpha)
  call void @quilt_bill(ptr @bill.alpha)
  %c = call ptr @quilt_get_req()
  call void @quilt_send_res(ptr %c)
  ret void
}
|}
  in
  match Vm.run_handler ~host:Interp.null_host (Parser.parse_module src) ~fname:"main__handler" ~req:"ok" with
  | Ok (_, stats) ->
      Alcotest.(check (option int)) "two ticks" (Some 2) (Hashtbl.find_opt stats.Interp.billing "alpha")
  | Error e -> Alcotest.fail e

(* --- String ABIs --- *)

let test_abi_layouts_differ () =
  let mem = Abi.Mem.create () in
  let rust = Abi.abi_of_lang "rust" in
  let c = Abi.abi_of_lang "c" in
  let go = Abi.abi_of_lang "go" in
  let swift = Abi.abi_of_lang "swift" in
  let s = "cross-language" in
  (* Round-trips within each ABI. *)
  List.iter
    (fun abi -> Alcotest.(check string) ("roundtrip " ^ abi.Abi.abi_lang) s (abi.Abi.read_str mem (abi.Abi.alloc_str mem s)))
    [ rust; c; go; swift ];
  (* Reading a Rust handle as a C string yields garbage, not the payload:
     the header starts with a pointer, not character data. *)
  let rust_handle = rust.Abi.alloc_str mem s in
  let misread = try c.Abi.read_str mem rust_handle with Abi.Mem.Trap _ -> "<trap>" in
  Alcotest.(check bool) "ABI mismatch is observable" true (misread <> s)

let test_abi_empty_strings () =
  let mem = Abi.Mem.create () in
  List.iter
    (fun lang ->
      let abi = Abi.abi_of_lang lang in
      Alcotest.(check string) (lang ^ " empty") "" (abi.Abi.read_str mem (abi.Abi.alloc_str mem "")))
    [ "c"; "cpp"; "rust"; "go"; "swift" ]

(* --- Passes: rename, dce, delayhttp --- *)

let test_rename_avoids_collisions () =
  let a = { Ir.mname = "a"; globals = []; funcs = [ mk_fn "helper" 1; mk_fn "only_a" 2 ] } in
  let b = { Ir.mname = "b"; globals = []; funcs = [ mk_fn "helper" 3; mk_fn "only_b" 4 ] } in
  let b' = Pass_rename.avoid_collisions ~against:a ~keep:(fun _ -> false) b in
  Alcotest.(check bool) "helper renamed" true (Ir.find_func b' "helper" = None);
  Alcotest.(check bool) "only_b kept" true (Ir.find_func b' "only_b" <> None);
  (* Now linking succeeds. *)
  let l = Linker.link a b' in
  Alcotest.(check int) "four symbols" 4 (List.length l.Ir.funcs)

let test_rename_updates_references () =
  let src =
    {|
define i64 @helper() {
entry:
  ret i64 5
}
define i64 @caller() {
entry:
  %r = call i64 @helper()
  ret i64 %r
}
|}
  in
  let b = Parser.parse_module src in
  let a = { Ir.mname = "a"; globals = []; funcs = [ mk_fn "helper" 1 ] } in
  let b' = Pass_rename.avoid_collisions ~against:a ~keep:(fun _ -> false) b in
  Alcotest.(check int) "no dangling references" 0 (List.length (Verify.run b'))

let test_dce_strips_unreachable () =
  let src =
    {|
@used = constant str "u"
@unused = constant str "x"
define i64 @root() {
entry:
  %r = call i64 @live()
  ret i64 %r
}
define i64 @live() {
entry:
  %p = gep ptr @used, i64 0
  ret i64 1
}
define i64 @dead() {
entry:
  ret i64 2
}
|}
  in
  let m = Parser.parse_module src in
  let m' = Pass_dce.run ~roots:[ "root" ] m in
  Alcotest.(check bool) "dead removed" true (Ir.find_func m' "dead" = None);
  Alcotest.(check bool) "live kept" true (Ir.find_func m' "live" <> None);
  Alcotest.(check bool) "unused global removed" true (Ir.find_global m' "unused" = None);
  Alcotest.(check bool) "used global kept" true (Ir.find_global m' "used" <> None);
  Alcotest.(check (list string)) "unused_symbols agrees" [ "dead"; "unused" ]
    (List.sort compare (Pass_dce.unused_symbols ~roots:[ "root" ] m))

let test_simplify_folds_constants () =
  let src =
    {|
define void @main__handler() {
entry:
  %a = add i64 2, 3
  %b = mul i64 %a, 4
  %c = icmp sgt i64 %b, 10
  %d = select i1 %c, i64 %b, 0
  %s = call ptr @c_itoa(i64 %d)
  %sc = call ptr @c_str_to_c(ptr %s)
  call void @quilt_send_res(ptr %sc)
  ret void
}
|}
  in
  let m = Pass_simplify.run (Parser.parse_module src) in
  (match Ir.find_func m "main__handler" with
  | Some f ->
      (* Everything but the three calls folds away. *)
      let instrs = List.concat_map (fun (b : Ir.block) -> b.Ir.instrs) f.Ir.blocks in
      Alcotest.(check int) "only calls remain" 3 (List.length instrs)
  | None -> Alcotest.fail "function missing");
  match Vm.run_handler ~host:Interp.null_host m ~fname:"main__handler" ~req:"x" with
  | Ok (res, _) -> Alcotest.(check string) "folded result" "20" res
  | Error e -> Alcotest.fail e

let test_simplify_drops_identity_gep () =
  let src =
    {|
define void @main__handler() {
entry:
  %c = call ptr @quilt_get_req()
  %alias = gep ptr %c, i64 0
  call void @quilt_send_res(ptr %alias)
  ret void
}
|}
  in
  let m = Pass_simplify.run (Parser.parse_module src) in
  (match Ir.find_func m "main__handler" with
  | Some f ->
      let geps =
        List.concat_map (fun (b : Ir.block) -> b.Ir.instrs) f.Ir.blocks
        |> List.filter (fun i -> match i with Ir.Gep _ -> true | _ -> false)
      in
      Alcotest.(check int) "gep eliminated" 0 (List.length geps)
  | None -> Alcotest.fail "function missing");
  match Vm.run_handler ~host:Interp.null_host m ~fname:"main__handler" ~req:"echo" with
  | Ok (res, _) -> Alcotest.(check string) "still echoes" "echo" res
  | Error e -> Alcotest.fail e

let test_simplify_preserves_division_by_zero () =
  (* 1/0 must NOT be folded away or crash the pass; it stays and traps at
     run time, as the unoptimized program would. *)
  let src = "define void @main__handler() {\nentry:\n  %q = sdiv i64 1, 0\n  call void @quilt_send_res(ptr null)\n  ret void\n}" in
  let m = Pass_simplify.run (Parser.parse_module src) in
  match Ir.find_func m "main__handler" with
  | Some f ->
      (* Folding must not produce a bogus constant: the sdiv stays as it
         was (removing unused instructions is Pass_livedce's job). *)
      let divs =
        List.concat_map (fun (b : Ir.block) -> b.Ir.instrs) f.Ir.blocks
        |> List.filter (fun i -> match i with Ir.Binop { op = Ir.Sdiv; _ } -> true | _ -> false)
      in
      Alcotest.(check int) "sdiv kept" 1 (List.length divs)
  | None -> Alcotest.fail "function missing"

let test_delayhttp_moves_init () =
  let src =
    {|
@svc = constant str "other"
define void @f__handler() {
entry:
  call void @quilt_curl_global_init()
  %c = call ptr @quilt_get_req()
  %r = call ptr @quilt_sync_inv(ptr @svc, ptr %c)
  call void @quilt_send_res(ptr %r)
  ret void
}
|}
  in
  let m = Parser.parse_module src in
  Alcotest.(check int) "one eager init before" 1 (Pass_delayhttp.eager_init_count m);
  let m' = Pass_delayhttp.run m in
  Alcotest.(check int) "no eager init after" 0 (Pass_delayhttp.eager_init_count m');
  (* Still runs — the inserted init_once satisfies the HTTP-stack check —
     and the load is recorded as lazy. *)
  match Vm.run_handler ~host:Interp.echo_host m' ~fname:"f__handler" ~req:"{}" with
  | Ok (_, stats) ->
      Alcotest.(check bool) "loaded" true stats.Interp.curl_loaded;
      Alcotest.(check bool) "not eagerly" false stats.Interp.curl_loaded_eagerly
  | Error e -> Alcotest.fail e

let suite =
  [
    ( "ir.text",
      [
        Alcotest.test_case "parse basic" `Quick test_parse_basic;
        Alcotest.test_case "pp/parse roundtrip" `Quick test_pp_parse_roundtrip;
        Alcotest.test_case "parser errors" `Quick test_parser_errors;
        Alcotest.test_case "string escapes" `Quick test_string_escapes_roundtrip;
      ] );
    ( "ir.verify",
      [
        Alcotest.test_case "accepts well-formed" `Quick test_verify_ok;
        Alcotest.test_case "bad label" `Quick test_verify_catches_bad_label;
        Alcotest.test_case "undefined local" `Quick test_verify_catches_undefined_local;
        Alcotest.test_case "unknown callee" `Quick test_verify_catches_unknown_callee;
        Alcotest.test_case "intrinsics allowed" `Quick test_verify_accepts_intrinsics;
        Alcotest.test_case "signature mismatch" `Quick test_verify_catches_signature_mismatch;
        Alcotest.test_case "duplicate symbol" `Quick test_verify_catches_duplicate_symbol;
        Alcotest.test_case "entry must be first" `Quick test_verify_catches_entry_not_first;
        Alcotest.test_case "double local definition" `Quick test_verify_catches_double_definition_of_local;
        Alcotest.test_case "ret type mismatch" `Quick test_verify_catches_ret_type_mismatch;
        Alcotest.test_case "int literal extremes" `Quick test_parser_negative_and_large_ints;
      ] );
    ( "ir.linker",
      [
        Alcotest.test_case "decl + def" `Quick test_linker_merges_decl_and_def;
        Alcotest.test_case "conflicting defs" `Quick test_linker_rejects_conflicting_defs;
        Alcotest.test_case "dedup identical" `Quick test_linker_dedups_identical;
        Alcotest.test_case "equal globals" `Quick test_linker_merges_equal_globals;
      ] );
    ( "ir.interp",
      [
        Alcotest.test_case "arith and control" `Quick test_interp_arith_and_control;
        Alcotest.test_case "memory ops" `Quick test_interp_memory_ops;
        Alcotest.test_case "out of bounds traps" `Quick test_interp_out_of_bounds_traps;
        Alcotest.test_case "fuel" `Quick test_interp_infinite_loop_runs_out_of_fuel;
        Alcotest.test_case "work intrinsics" `Quick test_interp_work_intrinsics;
        Alcotest.test_case "remote needs curl init" `Quick test_interp_remote_requires_curl_init;
        Alcotest.test_case "select and shifts" `Quick test_interp_select_and_shifts;
        Alcotest.test_case "division by zero traps" `Quick test_interp_division_by_zero_traps;
        Alcotest.test_case "billing native" `Quick test_interp_billing_native;
      ] );
    ( "ir.abi",
      [
        Alcotest.test_case "layouts differ" `Quick test_abi_layouts_differ;
        Alcotest.test_case "empty strings" `Quick test_abi_empty_strings;
      ] );
    ( "ir.passes",
      [
        Alcotest.test_case "rename avoids collisions" `Quick test_rename_avoids_collisions;
        Alcotest.test_case "rename updates references" `Quick test_rename_updates_references;
        Alcotest.test_case "dce strips unreachable" `Quick test_dce_strips_unreachable;
        Alcotest.test_case "simplify folds constants" `Quick test_simplify_folds_constants;
        Alcotest.test_case "simplify drops identity gep" `Quick test_simplify_drops_identity_gep;
        Alcotest.test_case "simplify and division by zero" `Quick test_simplify_preserves_division_by_zero;
        Alcotest.test_case "delayhttp" `Quick test_delayhttp_moves_init;
      ] );
  ]

