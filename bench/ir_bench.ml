(* The QVM compiled engine and the static-analysis framework (writes
   BENCH_ir.json).

   Two execution workloads, each timed with and without the
   analysis-driven passes next to its deterministic instruction and step
   counts and words allocated per call (checked against the committed file
   by a smoke run):
   - the merged compose-post handler end to end, native runtime (JSON
     natives, string-ABI shims) included;
   - a native-free hot loop of the same handler-convention shape, which
     isolates engine dispatch. *)

module Workflow = Quilt_apps.Workflow
module Deathstar = Quilt_apps.Deathstar
module Pipeline = Quilt_merge.Pipeline
module Interp = Quilt_ir.Interp
module Vm = Quilt_ir.Vm
module Compile = Quilt_ir.Compile
module Qir = Quilt_ir.Ir
module Verify = Quilt_ir.Verify
module Json = Quilt_util.Json

(* A handler whose body is pure interpreted work: [n] iterations of a
   phi-carried integer recurrence, with the only natives being the
   handler-convention pair (get_req / send_res). *)
let dispatch_loop_module n =
  let i64 c = Qir.Const (Qir.Cint (Qir.I64, Int64.of_int c)) in
  let l x = Qir.Local x in
  let entry =
    {
      Qir.label = "entry";
      instrs =
        [ Qir.Call { dst = Some "req"; ret = Qir.Ptr; callee = "quilt_get_req"; args = [] } ];
      term = Qir.Br "head";
    }
  in
  let head =
    {
      Qir.label = "head";
      instrs =
        [
          Qir.Phi { dst = "i"; ty = Qir.I64; incoming = [ (i64 0, "entry"); (l "i2", "body") ] };
          Qir.Phi
            { dst = "acc"; ty = Qir.I64; incoming = [ (i64 1, "entry"); (l "acc2", "body") ] };
          Qir.Icmp { dst = "c"; cmp = Qir.Cslt; ty = Qir.I64; lhs = l "i"; rhs = i64 n };
        ];
      term = Qir.Cbr { cond = l "c"; if_true = "body"; if_false = "done" };
    }
  in
  let body =
    {
      Qir.label = "body";
      instrs =
        [
          Qir.Binop { dst = "t0"; op = Qir.Mul; ty = Qir.I64; lhs = l "acc"; rhs = i64 3 };
          Qir.Binop { dst = "t1"; op = Qir.Add; ty = Qir.I64; lhs = l "t0"; rhs = l "i" };
          Qir.Binop { dst = "t2"; op = Qir.Xor; ty = Qir.I64; lhs = l "t1"; rhs = i64 0x55 };
          Qir.Binop { dst = "acc2"; op = Qir.And; ty = Qir.I64; lhs = l "t2"; rhs = i64 0xffffff };
          Qir.Binop { dst = "i2"; op = Qir.Add; ty = Qir.I64; lhs = l "i"; rhs = i64 1 };
        ];
      term = Qir.Br "head";
    }
  in
  let done_b =
    {
      Qir.label = "done";
      instrs =
        [ Qir.Call { dst = None; ret = Qir.Void; callee = "quilt_send_res"; args = [ (Qir.Ptr, l "req") ] } ];
      term = Qir.Ret None;
    }
  in
  {
    Qir.mname = "dispatch_loop";
    globals = [];
    funcs =
      [
        {
          Qir.fname = "dispatch-loop";
          params = [];
          ret_ty = Qir.Void;
          blocks = [ entry; head; body; done_b ];
          linkage = Qir.Internal;
          lang = Some "c";
        };
      ];
  }

let steps_of ~host m ~fname ~req =
  match Vm.run_handler ~host m ~fname ~req with
  | Ok (_, s) -> s.Interp.steps
  | Error e -> failwith (Printf.sprintf "ir bench workload traps: %s" e)

(* Words allocated per call over a fixed number of warm calls, the same at
   every scale: minor-heap words, and words allocated directly in the major
   heap (major minus promoted), such as a per-request arena.  The minor
   count comes from [Gc.minor_words], which is exact; [Gc.counters]'s
   minor field is only brought up to date at minor collections. *)
let alloc_calls = 100

let words_per_call f =
  ignore (f ());
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  for _ = 1 to alloc_calls do
    ignore (f ())
  done;
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  let per x = x /. float_of_int alloc_calls in
  [
    ("minor_words", Json.Float (per (minor1 -. minor0)));
    ("major_words", Json.Float (per (major1 -. major0 -. (promoted1 -. promoted0))));
  ]

let run () =
  Common.section "ir: QVM compiled engine and static analysis";
  (* Calls per timed rep (a tenth of it for lint and verify): each call
     here takes microseconds to a few milliseconds. *)
  let batch = if !Common.smoke then 150 else 2000 in
  let host = Interp.echo_host in
  let vm_row name m ~fname ~req =
    let steps = steps_of ~host m ~fname ~req in
    let prog = Compile.compile m in
    let call () = Vm.run_handler_prog ~host prog ~fname ~req in
    let words = words_per_call call in
    let _, wall = Common.measure ~batch call in
    Common.row name wall
      ([ ("instrs", Json.Int (Qir.instr_count m)); ("steps", Json.Int steps) ] @ words)
  in

  (* Workload 1: the merged compose-post handler, end to end, native
     runtime (json + string shims) included.  The unoptimized arm is the
     same merge with the analysis-driven passes (SCCP, jump threading,
     shim inlining) switched off. *)
  let wfs = Deathstar.all ~async:false () in
  let wf = List.find (fun w -> w.Workflow.wf_name = "compose-post") wfs in
  let merge ~optimize =
    Pipeline.merge_group
      ~lookup:(fun svc -> Workflow.lookup wf svc)
      ~members:(Workflow.fn_names wf) ~root:wf.Workflow.entry ~optimize ()
  in
  let report = merge ~optimize:true in
  let m = report.Pipeline.merged_module in
  let fname = report.Pipeline.entry in
  let req = {|{"user":"alice","text":"hello world","media":"img.png"}|} in
  let cp_row = vm_row "compose-post-merged" m ~fname ~req in
  let cp0_row =
    vm_row "compose-post-merged unoptimized" (merge ~optimize:false).Pipeline.merged_module
      ~fname ~req
  in

  (* Workload 2: a native-free hot loop isolating engine dispatch, and the
     same loop optimized standalone: its accumulator chain is a phi-carried
     cycle only the liveness DCE can retire. *)
  let dl = dispatch_loop_module 1200 in
  let dl_opt =
    Quilt_ir.Pass_livedce.run (Quilt_ir.Pass_jumpthread.run (Quilt_ir.Pass_sccp.run dl))
  in
  let dl_row = vm_row "dispatch-loop" dl ~fname:"dispatch-loop" ~req:"{}" in
  let dl1_row = vm_row "dispatch-loop optimized" dl_opt ~fname:"dispatch-loop" ~req:"{}" in
  let vm_rows = [ cp_row; cp0_row; dl_row; dl1_row ] in
  (* The QVM rows' counters are deterministic: a change that alters
     instructions, steps or allocation per call must regenerate the file
     at full scale. *)
  if !Common.smoke then
    Common.check_committed "ir" [ "instrs"; "steps"; "minor_words"; "major_words" ] vm_rows;

  (* Lint throughput: the full strict verifier plus the merge-interference
     analyzer over the merged compose-post module. *)
  let _, lint_wall =
    Common.measure ~batch:(batch / 10) (fun () ->
        ignore (Verify.run ~strict:true m);
        ignore (Verify.interference m))
  in
  let lint_row = Common.row "lint:compose-post" lint_wall [ ("instrs", Json.Int (Qir.instr_count m)) ] in

  (* Strict verification alone over the merged module of every bundled
     workflow: wall time per pass over the corpus, and minor words
     allocated per instruction (deterministic). *)
  let corpus =
    List.map
      (fun (w : Workflow.t) ->
        (Pipeline.merge_group_uncached
           ~lookup:(fun svc -> Workflow.lookup w svc)
           ~members:(Workflow.fn_names w) ~root:w.Workflow.entry ())
          .Pipeline.merged_module)
      (wfs
      @ Deathstar.all ~async:true ()
      @ Quilt_apps.Special.
          [
            modified_nearby_cinema ();
            noop ();
            cross_language ();
            fan_out ~callee_mem_mb:14 ();
            routed ();
          ])
  in
  let verify_corpus () = List.iter (fun m -> ignore (Verify.run ~strict:true m)) corpus in
  let corpus_instrs = List.fold_left (fun n m -> n + Qir.instr_count m) 0 corpus in
  let corpus_funcs = List.fold_left (fun n m -> n + List.length m.Qir.funcs) 0 corpus in
  let w0 = Gc.minor_words () in
  verify_corpus ();
  let words_per_instr = (Gc.minor_words () -. w0) /. float_of_int corpus_instrs in
  let _, verify_wall = Common.measure ~batch:(batch / 10) verify_corpus in
  let verify_row =
    Common.row "verify:bundled-merges" verify_wall
      [
        ("instrs", Json.Int corpus_instrs);
        ("funcs", Json.Int corpus_funcs);
        ("minor_words_per_instr", Json.Float words_per_instr);
      ]
  in
  Common.write_section "ir" (vm_rows @ [ lint_row; verify_row ])
