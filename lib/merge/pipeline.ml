open Quilt_ir
module Ast = Quilt_lang.Ast
module Frontend = Quilt_lang.Frontend

type report = {
  rounds : (string * int) list;
  removed_symbols : int;
  languages : string list;
  merged_module : Ir.modul;
  entry : string;
}

let entry_handler root = Ast.handler_symbol root

(* Symbols never renamed on link: natives resolve to the host, the SDK
   runtime deduplicates per language, and service-name globals are shared
   constants. *)
let keep_symbol name =
  Intrinsics.mem name
  || List.exists
       (fun lang ->
         List.exists
           (fun suffix -> name = lang ^ suffix)
           [ "_sync_inv"; "_async_inv"; "_async_wait" ])
       Intrinsics.languages
  || String.length name >= 4 && String.sub name 0 4 = "svc."

let bfs_order ~members ~edges ~root =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let queue = Queue.create () in
  Hashtbl.replace visited root ();
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let svc = Queue.pop queue in
    order := svc :: !order;
    List.iter
      (fun (src, dst) ->
        if src = svc && not (Hashtbl.mem visited dst) then begin
          Hashtbl.replace visited dst ();
          Queue.add dst queue
        end)
      edges
  done;
  List.iter
    (fun m ->
      if not (Hashtbl.mem visited m) then
        failwith (Printf.sprintf "Pipeline.merge_group: member %s unreachable from root %s" m root))
    members;
  List.rev !order

let merge_group_uncached ?(on_stage = fun ~stage:_ _ -> ()) ~lookup ~members ~root
    ?(guards = []) ?(billing = false) ?(optimize = true) () =
  if not (List.mem root members) then failwith "Pipeline.merge_group: root must be a member";
  (* The strict verifier runs after every stage: a stage that breaks SSA
     dominance, typing or phi/CFG agreement is reported by name instead of
     surfacing as a miscompiled module three passes later.  One incremental
     checker per merge: each stage re-checks only the functions it changed
     (or whose callees' signatures it changed). *)
  let check = Verify.stage_checker ~strict:true () in
  let checked ~stage m =
    on_stage ~stage m;
    check ~stage m;
    m
  in
  let member_set = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace member_set m ()) members;
  (* Member-internal edges from the ASTs. *)
  let edges =
    List.concat_map
      (fun svc ->
        let f = lookup svc in
        List.filter_map
          (fun (callee, _kind) -> if Hashtbl.mem member_set callee then Some (svc, callee) else None)
          (Ast.invocations f.Ast.body))
      members
  in
  let order = bfs_order ~members ~edges ~root in
  (* Map handler symbols back to services for per-edge guards. *)
  let service_of_symbol = Hashtbl.create 16 in
  List.iter
    (fun svc ->
      Hashtbl.replace service_of_symbol (Ast.handler_symbol svc) svc;
      Hashtbl.replace service_of_symbol (Ast.local_symbol svc) svc)
    members;
  (* A member's call site to [callee] is conditional exactly when the
     first [guards] entry for the pair says so (§5.6). *)
  let mode ~callee ~caller =
    match Hashtbl.find_opt service_of_symbol caller with
    | Some caller_svc -> (
        match List.assoc_opt (caller_svc, callee) guards with
        | Some alpha -> Pass_mergefunc.Conditional alpha
        | None -> Pass_mergefunc.Unconditional)
    | None -> Pass_mergefunc.Unconditional
  in
  let root_handler = entry_handler root in
  let ids = ref 0 in
  let merged = ref (checked ~stage:"frontend" (Frontend.compile (lookup root))) in
  let rounds = ref [] in
  List.iter
    (fun callee ->
      if callee <> root then begin
        (* Step ①: compile, unless the code is already in the module (§5.4). *)
        let handler = Ast.handler_symbol callee in
        (* func_index both answers the probe and warms the memo the rename
           and merge passes hit on this same module value. *)
        if Ir.func_index !merged handler = None then begin
          let callee_module = Frontend.compile (lookup callee) in
          (* Step ②: RenameFunc. *)
          let callee_module =
            Pass_rename.avoid_collisions ~against:!merged ~keep:keep_symbol callee_module
          in
          (* Step ③: llvm-link with runtime dedup. *)
          merged := Linker.link ~dedup_identical:true !merged callee_module
        end;
        (* Step ④: MergeFunc. *)
        let local_name = Ast.local_symbol callee in
        if Ir.func_index !merged local_name = None then
          merged := Pass_mergefunc.localize_handler !merged ~handler ~local_name;
        let callee_lang = (lookup callee).Ast.fn_lang in
        let m', n =
          Pass_mergefunc.rewrite_call_sites !merged ~ids ~service:callee ~local_name ~callee_lang
            ~mode:(mode ~callee) ~reset_in:(Some root_handler)
        in
        merged := checked ~stage:("mergefunc:" ^ callee) m';
        rounds := (callee, n) :: !rounds
      end)
    order;
  (* A member linked in a later round may itself call an earlier-merged
     callee; sweep once more so every member-internal site is local. *)
  List.iter
    (fun callee ->
      if callee <> root then begin
        let local_name = Ast.local_symbol callee in
        let callee_lang = (lookup callee).Ast.fn_lang in
        let m', n =
          Pass_mergefunc.rewrite_call_sites !merged ~ids ~service:callee ~local_name ~callee_lang
            ~mode:(mode ~callee) ~reset_in:(Some root_handler)
        in
        merged := checked ~stage:("resweep:" ^ callee) m';
        if n > 0 then
          rounds :=
            List.map (fun (c, k) -> if c = callee then (c, k + n) else (c, k)) !rounds
      end)
    order;
  (* Strip what the entry handler cannot reach — the members' original
     handlers, unused runtime and shim functions — before the optimizing
     stages, so they rewrite and verify only live code.  Every later pass
     is per function and only ever drops references, so the reachable set
     only shrinks and the final strip sees the same module it would have
     seen without this one. *)
  let strip ~stage = merged := checked ~stage (Pass_dce.run ~roots:[ root_handler ] !merged) in
  let before = List.length !merged.Ir.funcs + List.length !merged.Ir.globals in
  strip ~stage:"dce:merged";
  (* Step ⑦: DelayHTTP. *)
  merged := checked ~stage:"delayhttp" (Pass_delayhttp.run !merged);
  (* Steps ⑧–⑩: scalar simplification (folds the localization aliases and
     anything constant), the analysis-driven optimization passes, dead
     instructions, then strip everything unreachable from the entry
     handler. *)
  merged := checked ~stage:"simplify" (Pass_simplify.run !merged);
  if optimize then begin
    merged := checked ~stage:"shiminline" (Pass_shiminline.run !merged);
    (* Inlining leaves the caller2c/c2callee shims dead. *)
    strip ~stage:"dce:shiminline";
    merged := checked ~stage:"sccp" (Pass_sccp.run !merged);
    merged := checked ~stage:"jumpthread" (Pass_jumpthread.run !merged)
  end;
  merged := checked ~stage:"livedce" (Pass_livedce.run !merged);
  strip ~stage:"dce";
  let after = List.length !merged.Ir.funcs + List.length !merged.Ir.globals in
  (* Optional per-function billing instrumentation (§8). *)
  if billing then merged := checked ~stage:"billing" (Pass_billing.run !merged);
  merged :=
    checked ~stage:"final"
      { !merged with Ir.mname = Printf.sprintf "quilt-merged.%s" (Ast.mangle root) };
  {
    rounds = List.rev !rounds;
    removed_symbols = before - after;
    languages = Ir.langs !merged;
    merged_module = !merged;
    entry = root_handler;
  }

(* --- Content-addressed merge cache ---

   The Controller's drift-triggered re-merges and the bench fan-outs keep
   recompiling the same groups: between two re-merge decisions the member
   sources rarely change, and independent seeds of one scenario share every
   group.  The cache keys a compiled [report] by the {e content} of its
   inputs — the members' AST digests, the root, the flags and the
   canonical guard list — so a re-merge with unchanged inputs is a table
   lookup, while any source or guard change misses by construction (no
   explicit invalidation).  Reports
   are immutable (no pass mutates a module), so sharing the cached value is
   safe.  A mutex guards the table because bench fan-outs call
   [merge_group] from a Domain pool; computation happens outside the lock
   (two domains may race to compute one key — last insert wins). *)

let cache : (string, report) Hashtbl.t = Hashtbl.create 64
let cache_lock = Mutex.create ()
let cache_enabled = Atomic.make true
let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0

let set_cache_enabled b = Atomic.set cache_enabled b

let cache_stats () = (Atomic.get cache_hits, Atomic.get cache_misses)

let reset_cache () =
  Mutex.lock cache_lock;
  Hashtbl.reset cache;
  Mutex.unlock cache_lock;
  Atomic.set cache_hits 0;
  Atomic.set cache_misses 0

let canonical_guards ~members guards =
  let rec firsts acc = function
    | [] -> acc
    | ((((caller, callee) as pair), _) as g) :: tl ->
        if List.mem_assoc pair acc || not (List.mem caller members && List.mem callee members) then
          firsts acc tl
        else firsts (g :: acc) tl
  in
  List.sort compare (firsts [] guards)

let fn_digest (f : Ast.fn) = Digest.to_hex (Digest.string (Marshal.to_string f []))

let cache_key ~lookup ~members ~root ~guards ~billing ~optimize =
  let sorted = List.sort String.compare members in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "root=";
  Buffer.add_string buf root;
  Buffer.add_string buf ";billing=";
  Buffer.add_string buf (if billing then "1" else "0");
  Buffer.add_string buf ";optimize=";
  Buffer.add_string buf (if optimize then "1" else "0");
  List.iter
    (fun m ->
      Buffer.add_string buf ";fn:";
      Buffer.add_string buf m;
      Buffer.add_char buf '=';
      Buffer.add_string buf (fn_digest (lookup m)))
    sorted;
  List.iter
    (fun ((caller, callee), alpha) ->
      Buffer.add_string buf ";g:";
      Buffer.add_string buf caller;
      Buffer.add_char buf '>';
      Buffer.add_string buf callee;
      Buffer.add_char buf '=';
      Buffer.add_string buf (string_of_int alpha))
    (canonical_guards ~members guards);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let merge_group ~lookup ~members ~root ?(guards = []) ?(billing = false) ?(optimize = true) () =
  if not (Atomic.get cache_enabled) then
    merge_group_uncached ~lookup ~members ~root ~guards ~billing ~optimize ()
  else begin
    let key = cache_key ~lookup ~members ~root ~guards ~billing ~optimize in
    Mutex.lock cache_lock;
    let cached = Hashtbl.find_opt cache key in
    Mutex.unlock cache_lock;
    match cached with
    | Some report ->
        ignore (Atomic.fetch_and_add cache_hits 1);
        report
    | None ->
        ignore (Atomic.fetch_and_add cache_misses 1);
        let report = merge_group_uncached ~lookup ~members ~root ~guards ~billing ~optimize () in
        Mutex.lock cache_lock;
        Hashtbl.replace cache key report;
        Mutex.unlock cache_lock;
        report
  end

let validate ~host report ~req =
  Vm.run_handler ~host report.merged_module ~fname:report.entry ~req
