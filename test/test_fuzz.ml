(* Pipeline fuzzing: generate random well-typed workflows (random DAG shape,
   random languages, random bodies; see Quilt_lang.Astgen), merge them
   fully, and check that the merged module — executed on the QVM with a
   host that rejects network calls — computes exactly what the reference
   evaluator computes for the distributed workflow.

   This is the repository's strongest soundness check: it exercises the
   frontends, RenameFunc, the linker's runtime deduplication, MergeFunc's
   localization and shim generation, DelayHTTP, DCE, and the QVM in one
   property.

   The differential properties at the bottom hold the QVM to exact
   observational equivalence with the tree-walking oracle (Treewalk): same
   responses, same trap messages, same stats — including under fuel
   starvation, where the engines must give out at the same instruction. *)

module Ast = Quilt_lang.Ast
module Astgen = Quilt_lang.Astgen
module Eval = Quilt_lang.Eval
module Pipeline = Quilt_merge.Pipeline
module Interp = Quilt_ir.Interp
module Vm = Quilt_ir.Vm

let gen_workflow = Astgen.gen_workflow
let lookup_for = Astgen.lookup_for

let rec reference fns svc req =
  let invoke ~kind:_ ~name ~req = fst (reference fns name req) in
  Eval.run ~invoke (lookup_for fns svc) ~req

let prop_merged_equals_reference =
  QCheck.Test.make ~name:"fuzz: fully merged workflow = distributed workflow" ~count:120
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let names, fns = gen_workflow seed in
      (* Type-check first: the generator must only produce well-typed
         functions; a Type_error here is a generator bug worth failing on. *)
      List.iter Ast.check_fn fns;
      let req = Printf.sprintf "{\"data\":\"d%d\",\"k\":%d}" (seed mod 50) (seed mod 17) in
      let expected, _ = reference fns (List.hd names) req in
      let report =
        Pipeline.merge_group ~lookup:(lookup_for fns) ~members:names ~root:(List.hd names) ()
      in
      match
        Vm.run_handler ~host:Interp.null_host report.Pipeline.merged_module
          ~fname:(Pipeline.entry_handler (List.hd names))
          ~req
      with
      | Ok (got, stats) -> got = expected && stats.Interp.remote_sync = [] && not stats.Interp.curl_loaded
      | Error _ -> false)

let prop_partial_merge_equals_reference =
  QCheck.Test.make ~name:"fuzz: partially merged workflow = distributed workflow" ~count:60
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let names, fns = gen_workflow seed in
      List.iter Ast.check_fn fns;
      match names with
      | _ :: _ :: _ :: _ ->
          (* Merge a prefix; the rest stays remote through a host that
             evaluates the callee workflows. *)
          let members = List.filteri (fun i _ -> i < 2) names in
          let req = Printf.sprintf "{\"data\":\"p%d\"}" (seed mod 50) in
          let expected, _ = reference fns (List.hd names) req in
          let report =
            Pipeline.merge_group ~lookup:(lookup_for fns) ~members ~root:(List.hd names) ()
          in
          let host = { Interp.invoke = (fun ~kind:_ ~name ~req -> fst (reference fns name req)) } in
          (match
             Vm.run_handler ~host report.Pipeline.merged_module
               ~fname:(Pipeline.entry_handler (List.hd names))
               ~req
           with
          | Ok (got, _) -> got = expected
          | Error _ -> false)
      | _ -> true)

let prop_eval_deterministic =
  QCheck.Test.make ~name:"fuzz: reference evaluator is deterministic" ~count:60
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let names, fns = gen_workflow seed in
      let req = "{\"data\":\"x\"}" in
      let a, _ = reference fns (List.hd names) req in
      let b, _ = reference fns (List.hd names) req in
      a = b)

(* A guard of [alpha] on every ordered pair of [names]. *)
let guard_every names alpha =
  List.concat_map (fun a -> List.map (fun b -> ((a, b), alpha)) names) names

let prop_guarded_merge_equals_reference =
  QCheck.Test.make ~name:"fuzz: guarded merge (random alpha) = distributed workflow" ~count:60
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let names, fns = gen_workflow seed in
      let alpha = 1 + (seed mod 3) in
      let report =
        Pipeline.merge_group ~lookup:(lookup_for fns) ~members:names ~root:(List.hd names)
          ~guards:(guard_every names alpha)
          ()
      in
      let req = Printf.sprintf "{\"data\":\"g%d\"}" (seed mod 50) in
      let expected, _ = reference fns (List.hd names) req in
      (* Overflow calls go remote; the host evaluates them faithfully. *)
      let host = { Interp.invoke = (fun ~kind:_ ~name ~req -> fst (reference fns name req)) } in
      match
        Vm.run_handler ~host report.Pipeline.merged_module
          ~fname:(Pipeline.entry_handler (List.hd names))
          ~req
      with
      | Ok (got, _) -> got = expected
      | Error _ -> false)

let prop_pipeline_report_covers_members =
  QCheck.Test.make ~name:"fuzz: merge report lists every non-root member once" ~count:60
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let names, fns = gen_workflow seed in
      let report =
        Pipeline.merge_group ~lookup:(lookup_for fns) ~members:names ~root:(List.hd names) ()
      in
      let merged = List.map fst report.Pipeline.rounds in
      List.sort compare merged = List.sort compare (List.tl names))

let prop_merged_module_text_roundtrip =
  QCheck.Test.make ~name:"fuzz: merged modules survive print+parse" ~count:40
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let names, fns = gen_workflow seed in
      let report =
        Pipeline.merge_group ~lookup:(lookup_for fns) ~members:names ~root:(List.hd names) ()
      in
      let printed = Quilt_ir.Pp.to_string report.Pipeline.merged_module in
      let reparsed = Quilt_ir.Parser.parse_module printed in
      (* Round-trip is printer-stable, and the reparsed module still runs. *)
      let req = "{\"data\":\"rt\"}" in
      let expected, _ = reference fns (List.hd names) req in
      Quilt_ir.Pp.to_string reparsed = printed
      &&
      match
        Vm.run_handler ~host:Interp.null_host reparsed
          ~fname:(Pipeline.entry_handler (List.hd names))
          ~req
      with
      | Ok (got, _) -> got = expected
      | Error _ -> false)

(* The analysis-driven optimization passes (shim inlining, SCCP, jump
   threading, liveness DCE) must be observationally invisible: same
   response, same billing, same per-callee call counts — except for the
   inlined shims themselves, whose call-stack entries disappear by
   design.  Executed steps may only shrink (instruction count may not:
   inlining a shim with several call sites duplicates its tiny body). *)
let prop_optimize_differential =
  QCheck.Test.make ~name:"fuzz: optimize passes preserve response/calls/billing" ~count:60
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let names, fns = gen_workflow seed in
      let merge opt =
        Pipeline.merge_group ~lookup:(lookup_for fns) ~members:names ~root:(List.hd names)
          ~billing:true ~optimize:opt ()
      in
      let r0 = merge false and r1 = merge true in
      let req = Printf.sprintf "{\"data\":\"o%d\",\"k\":%d}" (seed mod 50) (seed mod 17) in
      let run (r : Pipeline.report) =
        Vm.run_handler ~host:Interp.null_host r.Pipeline.merged_module
          ~fname:r.Pipeline.entry ~req
      in
      match (run r0, run r1) with
      | Ok (a, s0), Ok (b, s1) ->
          let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
          let non_shim tbl =
            List.filter (fun (k, _) -> not (Quilt_ir.Pass_shiminline.is_shim k)) (sorted tbl)
          in
          a = b
          && sorted s0.Interp.billing = sorted s1.Interp.billing
          && non_shim s0.Interp.calls = non_shim s1.Interp.calls
          && s1.Interp.steps <= s0.Interp.steps
      | Error e0, Error e1 -> e0 = e1
      | _ -> false)

(* Every merged module is clean under the strict verifier and the
   interference analyzer: no Error-severity diagnostic, ever. *)
let prop_merged_strict_clean =
  QCheck.Test.make ~name:"fuzz: merged modules lint clean under --strict" ~count:60
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let names, fns = gen_workflow seed in
      let report =
        Pipeline.merge_group ~lookup:(lookup_for fns) ~members:names ~root:(List.hd names) ()
      in
      let m = report.Pipeline.merged_module in
      let module Verify = Quilt_ir.Verify in
      List.for_all
        (fun d -> d.Verify.severity <> Verify.Error)
        (Verify.run ~strict:true m @ Verify.interference m))

(* --- Differential harness: tree-walker vs QVM --- *)

(* Everything observable about a run, including mutable-hashtable stats
   flattened into a comparable value.  Engine equivalence means equality on
   this whole fingerprint, not just on the response. *)
let fingerprint (s : Interp.stats) =
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  ( s.Interp.steps,
    s.Interp.cpu_us,
    s.Interp.io_us,
    s.Interp.peak_mem_mb,
    s.Interp.remote_sync,
    s.Interp.remote_async,
    s.Interp.curl_loaded,
    s.Interp.curl_loaded_eagerly,
    sorted s.Interp.calls,
    sorted s.Interp.billing )

let outcome = function
  | Ok (res, stats) -> Ok (res, fingerprint stats)
  | Error e -> Error e

let same_outcome a b =
  if a = b then true
  else begin
    let show = function
      | Ok (res, (steps, _, _, _, _, _, _, _, _, _)) ->
          Printf.sprintf "Ok %s (%d steps)" res steps
      | Error e -> Printf.sprintf "Error %s" e
    in
    QCheck.Test.fail_reportf "engines disagree:\n  treewalk: %s\n  compiled: %s" (show a) (show b)
  end

let prop_vm_differential_merged =
  QCheck.Test.make ~name:"fuzz: QVM = tree-walker on merged workflows (response+stats)" ~count:120
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let names, fns = gen_workflow seed in
      let report =
        Pipeline.merge_group ~lookup:(lookup_for fns) ~members:names ~root:(List.hd names) ()
      in
      let m = report.Pipeline.merged_module in
      let fname = report.Pipeline.entry in
      let req = Printf.sprintf "{\"data\":\"v%d\",\"k\":%d}" (seed mod 50) (seed mod 17) in
      let tw = outcome (Treewalk.run_handler ~host:Interp.null_host m ~fname ~req) in
      let vm = outcome (Vm.run_handler ~host:Interp.null_host m ~fname ~req) in
      same_outcome tw vm)

let prop_vm_differential_guarded =
  QCheck.Test.make
    ~name:"fuzz: QVM = tree-walker on guarded merges with a live host" ~count:60
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let names, fns = gen_workflow seed in
      let alpha = 1 + (seed mod 3) in
      let report =
        Pipeline.merge_group ~lookup:(lookup_for fns) ~members:names ~root:(List.hd names)
          ~guards:(guard_every names alpha)
          ()
      in
      let m = report.Pipeline.merged_module in
      let fname = report.Pipeline.entry in
      let req = Printf.sprintf "{\"data\":\"w%d\"}" (seed mod 50) in
      let host = { Interp.invoke = (fun ~kind:_ ~name ~req -> fst (reference fns name req)) } in
      let tw = outcome (Treewalk.run_handler ~host m ~fname ~req) in
      let vm = outcome (Vm.run_handler ~host m ~fname ~req) in
      same_outcome tw vm)

let prop_vm_differential_fuel =
  QCheck.Test.make
    ~name:"fuzz: QVM = tree-walker under fuel starvation (same trap, same step)" ~count:120
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let names, fns = gen_workflow seed in
      let report =
        Pipeline.merge_group ~lookup:(lookup_for fns) ~members:names ~root:(List.hd names) ()
      in
      let m = report.Pipeline.merged_module in
      let fname = report.Pipeline.entry in
      let req = Printf.sprintf "{\"data\":\"f%d\"}" (seed mod 50) in
      (* A fuel budget somewhere inside the run: both engines must either
         finish identically or run out at the same instruction count. *)
      let fuel = 1 + (seed mod 300) in
      let tw = outcome (Treewalk.run_handler ~fuel ~host:Interp.null_host m ~fname ~req) in
      let vm = outcome (Vm.run_handler ~fuel ~host:Interp.null_host m ~fname ~req) in
      same_outcome tw vm)

let prop_vm_differential_unmerged =
  QCheck.Test.make
    ~name:"fuzz: QVM = tree-walker on single-function modules (frontend output)" ~count:120
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let _, fns = gen_workflow seed in
      (* The last member has no callees: its module runs without a live
         host even before merging. *)
      let fn = List.nth fns (List.length fns - 1) in
      let m = Quilt_lang.Frontend.compile fn in
      let fname = Ast.handler_symbol fn.Ast.fn_name in
      let req = Printf.sprintf "{\"data\":\"u%d\"}" (seed mod 50) in
      let tw = outcome (Treewalk.run_handler ~host:Interp.echo_host m ~fname ~req) in
      let vm = outcome (Vm.run_handler ~host:Interp.echo_host m ~fname ~req) in
      same_outcome tw vm)

(* --- Heap reuse: running on one compiled program = running on fresh ones --- *)

(* A global and handlers appended to a merged module, so that a request
   sequence can leave the program's spare heap in every state a real run
   can — a mutated global, dirtied and then trapped on (a wild pointer, an
   out-of-bounds load), grown far past what the merged handler needs — and
   can observe a leak: on a fresh program [reuse_count] always answers 1
   and [reuse_zero] always 0. *)
let reuse_extras =
  Quilt_ir.Parser.parse_module
    {|
module "reuse"
@reuse_n = global i64 0
define void @reuse_count() {
entry:
  %v = load i64, ptr @reuse_n
  %v2 = add i64 %v, 1
  store i64 %v2, ptr @reuse_n
  %s = call ptr @c_itoa(i64 %v2)
  call void @quilt_send_res(ptr %s)
  ret void
}
define void @reuse_zero() {
entry:
  %p = call ptr @quilt_malloc(i64 64)
  %a = load i64, ptr %p
  %q = gep ptr %p, i64 56
  %b = load i64, ptr %q
  %c = or i64 %a, %b
  %s = call ptr @c_itoa(i64 %c)
  call void @quilt_send_res(ptr %s)
  ret void
}
define void @reuse_wild() {
entry:
  %p = call ptr @quilt_malloc(i64 32)
  store i64 -1, ptr %p
  store i64 -1, ptr @reuse_n
  %w = add i64 4294967296000000, 0
  %v = load i64, ptr %w
  ret void
}
define void @reuse_oob() {
entry:
  %p = call ptr @quilt_malloc(i64 4)
  store i8 255, ptr %p
  %q = gep ptr %p, i64 3
  %v = load i64, ptr %q
  ret void
}
define void @reuse_grow() {
entry:
  %r = call ptr @quilt_get_req()
  %p = call ptr @quilt_malloc(i64 300000)
  store i64 -1, ptr %p
  %q = gep ptr %p, i64 56
  store i64 -1, ptr %q
  %e = gep ptr %p, i64 299992
  store i64 -1, ptr %e
  call void @quilt_send_res(ptr %r)
  ret void
}
|}

type reuse_req = Handler of int | Starved of int | Count | Zero | Wild | Oob | Grow

let prop_vm_reuse_invisible =
  QCheck.Test.make
    ~name:"fuzz: a request sequence on one program = each on a fresh program" ~count:60
    QCheck.(pair (int_range 1 1_000_000) (small_list (int_range 0 99)))
    (fun (seed, picks) ->
      let names, fns = gen_workflow seed in
      let report =
        Pipeline.merge_group ~lookup:(lookup_for fns) ~members:names ~root:(List.hd names) ()
      in
      let m = report.Pipeline.merged_module in
      let m =
        Quilt_ir.Ir.
          {
            m with
            globals = m.globals @ reuse_extras.globals;
            funcs = m.funcs @ reuse_extras.funcs;
          }
      in
      let entry = report.Pipeline.entry in
      let of_pick k =
        match k mod 7 with
        | 0 | 1 -> Handler k
        | 2 -> Starved (1 + (k * 7))
        | 3 -> Count
        | 4 -> Wild
        | 5 -> Oob
        | _ -> Zero
      in
      (* Every sequence ends with each trap, a heap that outgrows the
         spare, and small requests after it. *)
      let reqs =
        List.map of_pick picks
        @ [ Count; Starved (1 + (seed mod 300)); Wild; Oob; Count; Grow; Zero; Handler seed; Count ]
      in
      (* (fuel, entry point, request) of each kind of request. *)
      let call = function
        | Handler k ->
            (None, entry, Printf.sprintf "{\"data\":\"r%d\",\"k\":%d}" (k mod 50) (k mod 17))
        | Starved fuel -> (Some fuel, entry, "{\"data\":\"s\"}")
        | Count -> (None, "reuse_count", "{}")
        | Zero -> (None, "reuse_zero", "{}")
        | Wild -> (None, "reuse_wild", "{}")
        | Oob -> (None, "reuse_oob", "{}")
        | Grow -> (None, "reuse_grow", "{\"big\":1}")
      in
      let prog = Quilt_ir.Compile.compile m in
      List.for_all
        (fun r ->
          let fuel, fname, req = call r in
          let host = Interp.null_host in
          same_outcome
            (outcome (Vm.run_handler ?fuel ~host m ~fname ~req))
            (outcome (Vm.run_handler_prog ?fuel ~host prog ~fname ~req)))
        reqs)

let suite =
  [
    ( "fuzz.pipeline",
      [
        QCheck_alcotest.to_alcotest prop_merged_equals_reference;
        QCheck_alcotest.to_alcotest prop_partial_merge_equals_reference;
        QCheck_alcotest.to_alcotest prop_eval_deterministic;
        QCheck_alcotest.to_alcotest prop_merged_module_text_roundtrip;
        QCheck_alcotest.to_alcotest prop_guarded_merge_equals_reference;
        QCheck_alcotest.to_alcotest prop_pipeline_report_covers_members;
        QCheck_alcotest.to_alcotest prop_optimize_differential;
        QCheck_alcotest.to_alcotest prop_merged_strict_clean;
      ] );
    ( "fuzz.vm-differential",
      [
        QCheck_alcotest.to_alcotest prop_vm_differential_merged;
        QCheck_alcotest.to_alcotest prop_vm_differential_guarded;
        QCheck_alcotest.to_alcotest prop_vm_differential_fuel;
        QCheck_alcotest.to_alcotest prop_vm_differential_unmerged;
        QCheck_alcotest.to_alcotest prop_vm_reuse_invisible;
      ] );
  ]
