(* Differential tests against the test-side oracles: the verifier must give
   exactly the oracle's diagnostics (same order, code, severity, block and
   message) on every stage module of every bundled merge and on mutants of
   them, and the call-graph builder must give bit-identical graphs on
   random trace stores and on every bundled workflow's profile. *)

open Quilt_ir
module Pipeline = Quilt_merge.Pipeline
module Workflow = Quilt_apps.Workflow
module Trace = Quilt_tracing.Trace
module Builder = Quilt_tracing.Builder
module Callgraph = Quilt_dag.Callgraph

let bundled_workflows = Test_analysis.bundled_workflows

let same_diagnostics ~what m =
  List.iter
    (fun strict ->
      let got = Verify.run ~strict m and want = Verify_oracle.run ~strict m in
      if got <> want then
        Alcotest.failf "%s (strict=%b): %d diagnostics, oracle %d\n  got:  %s\n  want: %s" what
          strict (List.length got) (List.length want)
          (String.concat "\n        " (List.map Verify.to_string got))
          (String.concat "\n        " (List.map Verify.to_string want)))
    [ true; false ]

(* Every stage module of every bundled merge, under the same three
   pipeline variants the incremental-verification test uses. *)
let stage_modules =
  lazy
    (let out = ref [] in
     List.iter
       (fun (wf : Workflow.t) ->
         List.iter
           (fun (guard, billing, optimize) ->
             let members = Workflow.fn_names wf in
             (* [guard]: that α on every ordered member pair. *)
             let guards =
               Option.map
                 (fun alpha ->
                   List.concat_map (fun a -> List.map (fun b -> ((a, b), alpha)) members) members)
                 guard
             in
             ignore
               (Pipeline.merge_group_uncached
                  ~on_stage:(fun ~stage m -> out := (wf.Workflow.wf_name ^ "/" ^ stage, m) :: !out)
                  ~lookup:(Workflow.lookup wf) ~members ~root:wf.Workflow.entry ?guards ?billing
                  ?optimize ()))
           [ (None, None, None); (Some 2, Some true, None); (None, None, Some false) ])
       (bundled_workflows ());
     Array.of_list (List.rev !out))

let test_stage_modules () =
  let stages = Lazy.force stage_modules in
  Array.iter (fun (what, m) -> same_diagnostics ~what m) stages;
  Alcotest.(check bool) "stage modules were compared" true (Array.length stages > 100)

(* --- Mutants --- *)

let pick rs l = List.nth l (Random.State.int rs (List.length l))
let all_tys = [ Ir.I1; Ir.I8; Ir.I32; Ir.I64; Ir.F64; Ir.Ptr; Ir.Void ]

let rec remove_nth k = function
  | [] -> []
  | x :: tl -> if k = 0 then tl else x :: remove_nth (k - 1) tl

let rec insert_nth k y l =
  match l with
  | _ when k = 0 -> y :: l
  | [] -> [ y ]
  | x :: tl -> x :: insert_nth (k - 1) y tl

let map_nth k g l = List.mapi (fun i x -> if i = k then g x else x) l

let map_operands g (i : Ir.instr) : Ir.instr =
  match i with
  | Ir.Binop r -> Ir.Binop { r with lhs = g r.lhs; rhs = g r.rhs }
  | Ir.Icmp r -> Ir.Icmp { r with lhs = g r.lhs; rhs = g r.rhs }
  | Ir.Call r -> Ir.Call { r with args = List.map (fun (t, v) -> (t, g v)) r.args }
  | Ir.Alloca r -> Ir.Alloca { r with bytes = g r.bytes }
  | Ir.Load r -> Ir.Load { r with ptr = g r.ptr }
  | Ir.Store r -> Ir.Store { r with src = g r.src; ptr = g r.ptr }
  | Ir.Gep r -> Ir.Gep { r with base = g r.base; offset = g r.offset }
  | Ir.Phi r -> Ir.Phi { r with incoming = List.map (fun (v, l) -> (g v, l)) r.incoming }
  | Ir.Select r ->
      Ir.Select { r with cond = g r.cond; if_true = g r.if_true; if_false = g r.if_false }

let retype rs (i : Ir.instr) : Ir.instr =
  let t = pick rs all_tys in
  match i with
  | Ir.Binop r ->
      let op = if Random.State.bool rs then r.op else pick rs Ir.[ Add; Sdiv; Srem; Xor; Lshr ] in
      Ir.Binop { r with ty = t; op }
  | Ir.Icmp r -> Ir.Icmp { r with ty = t }
  | Ir.Load r -> Ir.Load { r with ty = t }
  | Ir.Store r -> Ir.Store { r with ty = t }
  | Ir.Phi r -> Ir.Phi { r with ty = t }
  | Ir.Select r -> Ir.Select { r with ty = t }
  | Ir.Call ({ args = _ :: _; _ } as r) when Random.State.bool rs ->
      let k = Random.State.int rs (List.length r.args) in
      if Random.State.int rs 4 = 0 then Ir.Call { r with args = remove_nth k r.args }
      else Ir.Call { r with args = map_nth k (fun (_, v) -> (t, v)) r.args }
  | Ir.Call r ->
      if Random.State.int rs 3 = 0 then Ir.Call { r with callee = r.callee ^ "_missing" }
      else Ir.Call { r with ret = t }
  | Ir.Alloca _ | Ir.Gep _ -> i

(* One random edit of [f]: drop, move, duplicate or insert an instruction;
   relabel a block; retarget a branch; retype an instruction; redirect or
   add a phi incoming; return an undefined local; swap operands for other
   locals or constants. *)
let mutate rs (f : Ir.func) =
  let blocks = Array.of_list f.Ir.blocks in
  let nb = Array.length blocks in
  let labels = "nowhere" :: List.map (fun (b : Ir.block) -> b.Ir.label) f.Ir.blocks in
  let locals =
    "undef"
    :: List.map fst f.Ir.params
    @ List.concat_map
        (fun (b : Ir.block) -> List.filter_map Analysis.instr_dst b.Ir.instrs)
        f.Ir.blocks
  in
  let value () =
    match Random.State.int rs 4 with
    | 0 -> Ir.Const (Ir.Cint (pick rs all_tys, 1L))
    | 1 -> Ir.Const (pick rs [ Ir.Cnull; Ir.Cfloat 0.5; Ir.Cglobal "g_missing" ])
    | _ -> Ir.Local (pick rs locals)
  in
  let bi = Random.State.int rs nb in
  let b = blocks.(bi) in
  let n = List.length b.Ir.instrs in
  let set_instrs bi instrs = blocks.(bi) <- { (blocks.(bi)) with Ir.instrs } in
  let k = if n = 0 then 0 else Random.State.int rs n in
  (match Random.State.int rs 11 with
  | 0 when n > 0 -> set_instrs bi (remove_nth k b.Ir.instrs)
  | 1 when n > 0 ->
      let i = List.nth b.Ir.instrs k in
      set_instrs bi (remove_nth k b.Ir.instrs);
      let bj = Random.State.int rs nb in
      let into = blocks.(bj).Ir.instrs in
      set_instrs bj (insert_nth (Random.State.int rs (List.length into + 1)) i into)
  | 2 when n > 0 -> set_instrs bi (insert_nth k (List.nth b.Ir.instrs k) b.Ir.instrs)
  | 3 -> blocks.(bi) <- { b with Ir.label = pick rs labels }
  | 4 when n > 0 -> set_instrs bi (map_nth k (retype rs) b.Ir.instrs)
  | 5 -> (
      let phi_at =
        List.find_index (function Ir.Phi _ -> true | _ -> false) b.Ir.instrs
      in
      match phi_at with
      | Some k ->
          set_instrs bi
            (map_nth k
               (function
                 | Ir.Phi r ->
                     let incoming =
                       match r.incoming with
                       | [] -> [ (value (), pick rs labels) ]
                       | inc ->
                           let j = Random.State.int rs (List.length inc) in
                           map_nth j
                             (fun (v, l) ->
                               if Random.State.bool rs then (v, pick rs labels) else (value (), l))
                             inc
                     in
                     Ir.Phi { r with incoming }
                 | i -> i)
               b.Ir.instrs)
      | None ->
          let phi =
            Ir.Phi
              { dst = "phi_new"; ty = pick rs all_tys; incoming = [ (value (), pick rs labels) ] }
          in
          set_instrs bi (phi :: b.Ir.instrs))
  | 6 -> blocks.(bi) <- { b with Ir.term = Ir.Ret (Some (pick rs all_tys, Ir.Local "undef")) }
  | 10 ->
      let fresh =
        match Random.State.int rs 3 with
        | 0 ->
            [
              Ir.Select
                {
                  dst = "sel_new";
                  ty = pick rs all_tys;
                  cond = value ();
                  if_true = value ();
                  if_false = value ();
                };
            ]
        | 1 -> [ Ir.Store { ty = pick rs all_tys; src = value (); ptr = value () } ]
        | _ ->
            [
              Ir.Alloca { dst = "slot_new"; bytes = value () };
              Ir.Store { ty = Ir.I64; src = value (); ptr = Ir.Local "slot_new" };
            ]
      in
      set_instrs bi (List.fold_left (fun l i -> insert_nth k i l) b.Ir.instrs (List.rev fresh))
  | 7 when n > 0 ->
      set_instrs bi
        (map_nth k (map_operands (fun v -> if Random.State.bool rs then value () else v)) b.Ir.instrs)
  | 8 -> (
      match b.Ir.term with
      | Ir.Ret (Some (t, _)) -> blocks.(bi) <- { b with Ir.term = Ir.Ret (Some (t, value ())) }
      | Ir.Ret None -> blocks.(bi) <- { b with Ir.term = Ir.Ret (Some (f.Ir.ret_ty, value ())) }
      | Ir.Cbr r -> blocks.(bi) <- { b with Ir.term = Ir.Cbr { r with cond = value () } }
      | Ir.Br _ | Ir.Unreachable -> blocks.(bi) <- { b with Ir.term = Ir.Ret None })
  | _ ->
      let term =
        match b.Ir.term with
        | Ir.Cbr r when Random.State.bool rs -> Ir.Cbr { r with if_true = pick rs labels }
        | Ir.Cbr r -> Ir.Cbr { r with if_false = pick rs labels }
        | Ir.Br _ | Ir.Ret _ | Ir.Unreachable ->
            if Random.State.int rs 4 = 0 then
              Ir.Cbr { cond = value (); if_true = pick rs labels; if_false = pick rs labels }
            else Ir.Br (pick rs labels)
      in
      blocks.(bi) <- { b with Ir.term });
  { f with Ir.blocks = Array.to_list blocks }

(* Defined functions of the stage modules, each with the module it lives
   in: a mutant replaces one of them and turns every other function into
   its declaration, so its probes resolve exactly as in the stage module
   while verification costs one function. *)
let targets =
  lazy
    (let out = ref [] in
     Array.iter
       (fun (what, (m : Ir.modul)) ->
         List.iter
           (fun (f : Ir.func) -> if not (Ir.is_declaration f) then out := (what, m, f) :: !out)
           m.Ir.funcs)
       (Lazy.force stage_modules);
     Array.of_list (List.rev !out))

let n_mutants = 10_000
let codes_seen = Hashtbl.create 32

let prop_mutants =
  QCheck.Test.make ~name:"verifier = oracle on stage-module mutants" ~count:n_mutants
    (QCheck.int_range 1 1_000_000) (fun seed ->
      let rs = Random.State.make [| seed |] in
      let targets = Lazy.force targets in
      let what, m, f = targets.(Random.State.int rs (Array.length targets)) in
      let rec edits f k = if k = 0 then f else edits (mutate rs f) (k - 1) in
      let mutant = edits f (1 + Random.State.int rs 3) in
      let m' =
        {
          m with
          Ir.funcs =
            List.map
              (fun (g : Ir.func) -> if g == f then mutant else { g with Ir.blocks = [] })
              m.Ir.funcs;
        }
      in
      same_diagnostics ~what:(Printf.sprintf "%s, @%s, seed %d" what f.Ir.fname seed) m';
      List.iter (fun d -> Hashtbl.replace codes_seen d.Verify.code ()) (Verify.run ~strict:true m');
      true)

(* The mutants must reach every per-function diagnostic code, or the
   comparison says nothing about that code's path. *)
let test_mutants () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 7 |]) prop_mutants;
  let missing =
    List.filter
      (fun c -> not (Hashtbl.mem codes_seen c))
      [
        "V001"; "V002"; "V003"; "V004"; "V005"; "V006"; "V007"; "V008"; "V009"; "V010"; "V011";
        "V013"; "S001"; "S002"; "S003"; "S004"; "S005"; "S006"; "S007"; "S008"; "S009"; "W001";
        "W002";
      ]
  in
  Alcotest.(check (list string)) "codes the mutants never produced" [] missing

(* --- Call-graph builder --- *)

(* Structural equality with floats compared bit for bit. *)
let same_graph (a : (Callgraph.t, string) result) (b : (Callgraph.t, string) result) =
  match (a, b) with
  | Error x, Error y -> x = y
  | Ok g, Ok h ->
      let bits = Int64.bits_of_float in
      g = h
      && Array.for_all2
           (fun (x : Callgraph.node) (y : Callgraph.node) ->
             bits x.Callgraph.cpu = bits y.Callgraph.cpu
             && bits x.Callgraph.mem_mb = bits y.Callgraph.mem_mb)
           g.Callgraph.nodes h.Callgraph.nodes
  | Ok _, Error _ | Error _, Ok _ -> false

let check_build ~what st ~entry ?window_start () =
  let got = Builder.build st ~entry ?window_start ()
  and want = Builder_oracle.build st ~entry ?window_start () in
  if not (same_graph got want) then Alcotest.failf "%s: builder differs from the oracle" what;
  match got with Ok _ -> 1 | Error _ -> 0

(* A store over functions f0..f(n-1) with entry f0: spans along a random
   DAG plus stray spans, timestamps drawn independently (so not
   monotone), and cumulative per-container resource samples. *)
let random_store rs =
  let st = Trace.create () in
  let n = 1 + Random.State.int rs 8 in
  let name i = Printf.sprintf "f%d" i in
  let ts () = Random.State.float rs 1000.0 in
  let kind () = if Random.State.int rs 4 = 0 then Trace.Async else Trace.Sync in
  let edges =
    List.concat
      (List.init n (fun j ->
           if j = 0 then []
           else
             List.init (1 + Random.State.int rs 2) (fun _ -> (Random.State.int rs j, j))))
  in
  for _ = 1 to Random.State.int rs 120 do
    match Random.State.int rs 10 with
    | 0 | 1 -> Trace.record_span st { ts = ts (); caller = None; callee = name 0; kind = Sync }
    | 2 ->
        let a = Random.State.int rs (n + 1) and c = Random.State.int rs (n + 1) in
        Trace.record_span st
          {
            ts = ts ();
            caller = (if a = n then None else Some (name a));
            callee = name c;
            kind = kind ();
          }
    | _ ->
        if edges <> [] then
          let i, j = pick rs edges in
          Trace.record_span st { ts = ts (); caller = Some (name i); callee = name j; kind = kind () }
  done;
  for _ = 1 to Random.State.int rs 60 do
    Trace.record_resource st
      {
        rs_ts = ts ();
        container = Random.State.int rs 4;
        fn = name (Random.State.int rs (n + 1));
        cpu_us_cum = Random.State.float rs 5000.0;
        mem_mb = Random.State.float rs 64.0;
        invocations_cum = Random.State.int rs 50;
      }
  done;
  st

let prop_builder =
  QCheck.Test.make ~name:"builder = oracle on random stores" ~count:2000
    (QCheck.int_range 1 1_000_000) (fun seed ->
      let rs = Random.State.make [| seed |] in
      let st = random_store rs in
      let what = Printf.sprintf "seed %d" seed in
      let window_start = Random.State.float rs 1000.0 in
      ignore (check_build ~what st ~entry:"f0" ());
      ignore (check_build ~what st ~entry:"f0" ~window_start ());
      Trace.evict_before st (Random.State.float rs window_start);
      ignore (check_build ~what:(what ^ ", evicted") st ~entry:"f0" ());
      ignore (check_build ~what:(what ^ ", evicted") st ~entry:"f0" ~window_start ());
      true)

let test_builder_on_profiles () =
  let built = ref 0 in
  List.iter
    (fun (wf : Workflow.t) ->
      let engine = Quilt_core.Quilt.fresh_platform ~seed:3 ~workflows:[ wf ] () in
      Quilt_platform.Engine.set_profiling engine true;
      let t0 = Quilt_platform.Engine.now engine in
      ignore
        (Quilt_platform.Loadgen.run_closed_loop engine ~entry:wf.Workflow.entry
           ~gen_req:wf.Workflow.gen_req ~connections:4 ~duration_us:3_000_000.0 ~warmup_us:0.0
           ());
      let st = Quilt_platform.Engine.tracing engine in
      let entry = wf.Workflow.entry and what = wf.Workflow.wf_name in
      built := !built + check_build ~what st ~entry ();
      built := !built + check_build ~what:(what ^ ", windowed") st ~entry ~window_start:(t0 +. 1_500_000.0) ())
    (bundled_workflows ());
  Alcotest.(check bool) "profiles produced graphs" true (!built > 20)

let suite =
  [
    ( "differential.verify",
      [
        Alcotest.test_case "stage modules match the oracle" `Quick test_stage_modules;
        Alcotest.test_case "10k mutants match the oracle" `Quick test_mutants;
      ] );
    ( "differential.builder",
      [
        QCheck_alcotest.to_alcotest prop_builder;
        Alcotest.test_case "bundled profiles match the oracle" `Quick test_builder_on_profiles;
      ] );
  ]
