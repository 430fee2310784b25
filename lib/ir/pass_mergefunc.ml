type mode = Unconditional | Conditional of int

let mangle s = String.map (fun c -> if c = '-' then '_' else c) s

let shim_names ~service ~caller_lang =
  let svc = mangle service in
  (Printf.sprintf "caller2c_%s_%s" caller_lang svc, Printf.sprintf "c2callee_%s" svc)

(* --- localize_handler --- *)

let localize_handler (m : Ir.modul) ~handler ~local_name =
  let f =
    match Ir.find_func m handler with
    | Some f when not (Ir.is_declaration f) -> f
    | Some _ | None -> failwith (Printf.sprintf "MergeFunc: handler @%s not defined" handler)
  in
  let fail msg = failwith (Printf.sprintf "MergeFunc: handler @%s not canonical: %s" handler msg) in
  let param = "qlocal_req" in
  (* Entry prologue: [curl_global_init]? ; %c = get_req ; %s = <lang>_str_from_c(%c). *)
  let entry, rest_blocks =
    match f.Ir.blocks with
    | e :: rest -> (e, rest)
    | [] -> fail "no blocks"
  in
  let instrs = entry.Ir.instrs in
  let instrs =
    match instrs with
    | Ir.Call { callee = "quilt_curl_global_init"; _ } :: tail -> tail
    | _ -> instrs
  in
  let new_entry_instrs =
    match instrs with
    | Ir.Call { dst = Some creq; callee = "quilt_get_req"; _ }
      :: Ir.Call { dst = Some sreq; callee = conv; args = [ (Ir.Ptr, Ir.Local creq') ]; _ }
      :: tail
      when creq' = creq
           && String.length conv > 11
           && String.sub conv (String.length conv - 10) 10 = "str_from_c" ->
        (* The local parameter is already the language-native string. *)
        Ir.Gep { dst = sreq; base = Ir.Local param; offset = Ir.Const (Ir.Cint (Ir.I64, 0L)) } :: tail
    | _ -> fail "entry must start with quilt_get_req followed by <lang>_str_from_c"
  in
  let entry = { entry with Ir.instrs = new_entry_instrs } in
  (* Return blocks: ... ; %oc = <lang>_str_to_c(%o) ; send_res(%oc) ; ret void. *)
  let fix_ret_block (b : Ir.block) =
    match b.Ir.term with
    | Ir.Ret None -> (
        let rev = List.rev b.Ir.instrs in
        match rev with
        | Ir.Call { dst = None; callee = "quilt_send_res"; args = [ (Ir.Ptr, Ir.Local oc) ]; _ }
          :: Ir.Call { dst = Some oc'; callee = conv; args = [ (Ir.Ptr, out) ]; _ }
          :: before
          when oc' = oc
               && String.length conv > 9
               && String.sub conv (String.length conv - 8) 8 = "str_to_c" ->
            { b with Ir.instrs = List.rev before; term = Ir.Ret (Some (Ir.Ptr, out)) }
        | _ -> fail "return block must end with <lang>_str_to_c; quilt_send_res; ret void")
    | Ir.Ret (Some _) -> fail "handler returns a value"
    | Ir.Br _ | Ir.Cbr _ | Ir.Unreachable -> b
  in
  let blocks = entry :: rest_blocks in
  let blocks = List.map fix_ret_block blocks in
  let local =
    {
      Ir.fname = local_name;
      params = [ (param, Ir.Ptr) ];
      ret_ty = Ir.Ptr;
      blocks;
      linkage = Ir.Internal;
      lang = f.Ir.lang;
    }
  in
  Ir.replace_func m local

(* --- Shim generation (Appendix D) --- *)

let ensure_c2callee (m : Ir.modul) ~service ~callee_lang ~local_name =
  let _, c2callee = shim_names ~service ~caller_lang:"x" in
  match Ir.find_func m c2callee with
  | Some _ -> (m, c2callee)
  | None ->
      let b =
        Builder.create ~fname:c2callee
          ~params:[ ("c", Ir.Ptr) ]
          ~ret_ty:Ir.Ptr ~lang:(Some callee_lang)
      in
      let s =
        Builder.call b ~ret:Ir.Ptr
          ~callee:(callee_lang ^ "_str_from_c")
          ~args:[ (Ir.Ptr, Ir.Local "c") ]
      in
      let r = Builder.call b ~ret:Ir.Ptr ~callee:local_name ~args:[ (Ir.Ptr, s) ] in
      let rc = Builder.call b ~ret:Ir.Ptr ~callee:(callee_lang ^ "_str_to_c") ~args:[ (Ir.Ptr, r) ] in
      Builder.terminate b (Ir.Ret (Some (Ir.Ptr, rc)));
      (Ir.add_func m (Builder.finish b), c2callee)

let ensure_caller2c (m : Ir.modul) ~service ~caller_lang ~callee_lang ~local_name =
  let caller2c, _ = shim_names ~service ~caller_lang in
  match Ir.find_func m caller2c with
  | Some _ -> (m, caller2c)
  | None ->
      let m, c2callee = ensure_c2callee m ~service ~callee_lang ~local_name in
      let b =
        Builder.create ~fname:caller2c
          ~params:[ ("s", Ir.Ptr) ]
          ~ret_ty:Ir.Ptr ~lang:(Some caller_lang)
      in
      let c =
        Builder.call b ~ret:Ir.Ptr ~callee:(caller_lang ^ "_str_to_c") ~args:[ (Ir.Ptr, Ir.Local "s") ]
      in
      let rc = Builder.call b ~ret:Ir.Ptr ~callee:c2callee ~args:[ (Ir.Ptr, c) ] in
      let r = Builder.call b ~ret:Ir.Ptr ~callee:(caller_lang ^ "_str_from_c") ~args:[ (Ir.Ptr, rc) ] in
      Builder.terminate b (Ir.Ret (Some (Ir.Ptr, r)));
      (Ir.add_func m (Builder.finish b), caller2c)

(* --- Call-site rewriting --- *)

type site_kind = Sync | Async

(* Matches %d = call ptr @<L>_sync_inv(ptr @g, ptr %req) where @g holds the
   target service name. *)
let match_site (m : Ir.modul) ~service (i : Ir.instr) =
  match i with
  | Ir.Call { dst; callee; args = [ (Ir.Ptr, Ir.Const (Ir.Cglobal g)); (Ir.Ptr, req) ]; _ } -> (
      let kind =
        if Filename.check_suffix callee "_sync_inv" then Some (Sync, Filename.chop_suffix callee "_sync_inv")
        else if Filename.check_suffix callee "_async_inv" then
          Some (Async, Filename.chop_suffix callee "_async_inv")
        else None
      in
      match kind with
      | Some (k, lang) when List.mem lang Intrinsics.languages && lang <> "quilt" -> (
          (* Probed for every call instruction of every function: the
             memoized index keeps this O(1) instead of scanning the global
             list per site. *)
          match Ir.global_index m g with
          | Some { Ir.ginit = Ir.Gstr s; _ } when s = service -> Some (k, lang, dst, req)
          | Some _ | None -> None)
      | Some _ | None -> None)
  | _ -> None

(* [ids] is the caller's fresh-name counter: one per merge, so the names
   a merge picks depend only on its inputs, not on earlier merges. *)
let next_id ids =
  incr ids;
  !ids

(* Local-call replacement instructions for one site.  [dst] keeps its
   original name so later uses still resolve. *)
let local_call_instrs ~ids ~kind ~caller2c ~caller_lang ~dst ~req =
  let id = next_id ids in
  match kind with
  | Sync -> [ Ir.Call { dst; ret = Ir.Ptr; callee = caller2c; args = [ (Ir.Ptr, req) ] } ]
  | Async ->
      let l = Printf.sprintf "qa%d.l" id and c = Printf.sprintf "qa%d.c" id in
      [
        Ir.Call { dst = Some l; ret = Ir.Ptr; callee = caller2c; args = [ (Ir.Ptr, req) ] };
        Ir.Call
          {
            dst = Some c;
            ret = Ir.Ptr;
            callee = caller_lang ^ "_str_to_c";
            args = [ (Ir.Ptr, Ir.Local l) ];
          };
        Ir.Call { dst; ret = Ir.Ptr; callee = "quilt_future_ready"; args = [ (Ir.Ptr, Ir.Local c) ] };
      ]

(* Conditional rewriting requires splitting the block at the call site. *)
let rewrite_block_conditional ~ids ~alpha ~counter ~caller2c ~caller_lang (b : Ir.block)
    ~site_instr ~kind ~dst ~req ~before ~after =
  let id = next_id ids in
  let l_local = Printf.sprintf "qc%d.local" id in
  let l_remote = Printf.sprintf "qc%d.remote" id in
  let l_join = Printf.sprintf "qc%d.join" id in
  let cnt = Printf.sprintf "qc%d.cnt" id in
  let cond = Printf.sprintf "qc%d.lt" id in
  let head =
    {
      Ir.label = b.Ir.label;
      instrs =
        before
        @ [
            Ir.Load { dst = cnt; ty = Ir.I64; ptr = Ir.Const (Ir.Cglobal counter) };
            Ir.Icmp
              {
                dst = cond;
                cmp = Ir.Cslt;
                ty = Ir.I64;
                lhs = Ir.Local cnt;
                rhs = Ir.Const (Ir.Cint (Ir.I64, Int64.of_int alpha));
              };
          ];
      term = Ir.Cbr { cond = Ir.Local cond; if_true = l_local; if_false = l_remote };
    }
  in
  let cnt1 = Printf.sprintf "qc%d.cnt1" id in
  let rl = Printf.sprintf "qc%d.rl" id in
  let local_instrs =
    [
      Ir.Binop
        { dst = cnt1; op = Ir.Add; ty = Ir.I64; lhs = Ir.Local cnt; rhs = Ir.Const (Ir.Cint (Ir.I64, 1L)) };
      Ir.Store { ty = Ir.I64; src = Ir.Local cnt1; ptr = Ir.Const (Ir.Cglobal counter) };
    ]
    @ local_call_instrs ~ids ~kind ~caller2c ~caller_lang ~dst:(Some rl) ~req
  in
  let local_block = { Ir.label = l_local; instrs = local_instrs; term = Ir.Br l_join } in
  let rr = Printf.sprintf "qc%d.rr" id in
  let remote_instr =
    match site_instr with
    | Ir.Call c -> Ir.Call { c with dst = Some rr }
    | _ -> assert false
  in
  let remote_block = { Ir.label = l_remote; instrs = [ remote_instr ]; term = Ir.Br l_join } in
  let join_instrs =
    match dst with
    | Some d ->
        Ir.Phi { dst = d; ty = Ir.Ptr; incoming = [ (Ir.Local rl, l_local); (Ir.Local rr, l_remote) ] }
        :: after
    | None -> after
  in
  let join_block = { Ir.label = l_join; instrs = join_instrs; term = b.Ir.term } in
  [ head; local_block; remote_block; join_block ]

let rewrite_function (m : Ir.modul) ~ids ~service ~caller2c_for ~mode (f : Ir.func) =
  if Ir.is_declaration f then (f, 0, [])
  else begin
    let count = ref 0 in
    let counters = ref [] in
    let split instrs =
      let rec scan before rest =
        match rest with
        | [] -> None
        | i :: tail -> (
            match match_site m ~service i with
            | Some (kind, lang, dst, req) -> Some (List.rev before, i, kind, lang, dst, req, tail)
            | None -> scan (i :: before) tail)
      in
      scan [] instrs
    in
    (* Rewrites one block into one or more; [clean] holds instructions
       already known to contain no sites, preserving original order so the
       entry block keeps its position. *)
    let rec process_block clean (b : Ir.block) =
      match split b.Ir.instrs with
      | None -> [ (if clean = [] then b else { b with Ir.instrs = clean @ b.Ir.instrs }) ]
      | Some (before, site_instr, kind, lang, dst, req, after) -> (
          incr count;
          let caller2c = caller2c_for lang in
          match mode ~caller:f.Ir.fname with
          | Unconditional ->
              let replacement = local_call_instrs ~ids ~kind ~caller2c ~caller_lang:lang ~dst ~req in
              process_block (clean @ before @ replacement) { b with Ir.instrs = after }
          | Conditional alpha ->
              let counter = Printf.sprintf "qcnt_%s_%s" (mangle f.Ir.fname) (mangle service) in
              if not (List.mem counter !counters) then counters := counter :: !counters;
              let blocks =
                rewrite_block_conditional ~ids ~alpha ~counter ~caller2c ~caller_lang:lang b ~site_instr
                  ~kind ~dst ~req ~before:(clean @ before) ~after
              in
              (match blocks with
              | head :: local_b :: remote_b :: join :: [] ->
                  [ head; local_b; remote_b ] @ process_block [] join
              | _ -> assert false))
    in
    (* Splitting a block moves its terminator into the final join block, so
       successors' phis must name that join as their predecessor. *)
    let label_map = Hashtbl.create 4 in
    let blocks =
      List.concat_map
        (fun (b : Ir.block) ->
          let processed = process_block [] b in
          (match List.rev processed with
          | last :: _ when last.Ir.label <> b.Ir.label ->
              Hashtbl.replace label_map b.Ir.label last.Ir.label
          | _ -> ());
          processed)
        f.Ir.blocks
    in
    let subst l = match Hashtbl.find_opt label_map l with Some l' -> l' | None -> l in
    let blocks =
      if Hashtbl.length label_map = 0 then blocks
      else
        List.map
          (fun (b : Ir.block) ->
            {
              b with
              Ir.instrs =
                List.map
                  (fun (i : Ir.instr) ->
                    match i with
                    | Ir.Phi p ->
                        Ir.Phi { p with incoming = List.map (fun (v, l) -> (v, subst l)) p.incoming }
                    | Ir.Binop _ | Ir.Icmp _ | Ir.Call _ | Ir.Alloca _ | Ir.Load _ | Ir.Store _
                    | Ir.Gep _ | Ir.Select _ ->
                        i)
                  b.Ir.instrs;
            })
          blocks
    in
    if !count = 0 then (f, 0, []) else ({ f with Ir.blocks = blocks }, !count, !counters)
  end

let insert_counter_reset (m : Ir.modul) ~handler counters =
  match Ir.find_func m handler with
  | Some f when counters <> [] && not (Ir.is_declaration f) ->
      let resets =
        List.map
          (fun c ->
            Ir.Store { ty = Ir.I64; src = Ir.Const (Ir.Cint (Ir.I64, 0L)); ptr = Ir.Const (Ir.Cglobal c) })
          counters
      in
      let blocks =
        match f.Ir.blocks with
        | e :: rest -> { e with Ir.instrs = resets @ e.Ir.instrs } :: rest
        | [] -> []
      in
      Ir.replace_func m { f with Ir.blocks = blocks }
  | Some _ | None -> m

let rewrite_call_sites (m : Ir.modul) ~ids ~service ~local_name ~callee_lang ~mode ~reset_in =
  (* Pre-generate shims lazily per caller language. *)
  let module_ref = ref m in
  let caller2c_for lang =
    let m', name =
      ensure_caller2c !module_ref ~service ~caller_lang:lang ~callee_lang ~local_name
    in
    module_ref := m';
    name
  in
  let total = ref 0 in
  let all_counters = ref [] in
  let funcs =
    Ir.map_same
      (fun f ->
        let f', n, counters = rewrite_function !module_ref ~ids ~service ~caller2c_for ~mode f in
        total := !total + n;
        all_counters := counters @ !all_counters;
        f')
      !module_ref.Ir.funcs
  in
  (* No site: every function came back unchanged, and no shim was made. *)
  if !total = 0 then (m, 0)
  else begin
    let m = { !module_ref with Ir.funcs } in
    (* Shim functions were added to module_ref during rewriting, but [funcs]
       was computed from the same list; re-add any shims missing.  A seen-set
       keeps this linear instead of re-scanning the accumulator per shim. *)
    let m =
      let have = Hashtbl.create (2 * List.length m.Ir.funcs) in
      List.iter (fun (f : Ir.func) -> Hashtbl.replace have f.Ir.fname ()) m.Ir.funcs;
      List.fold_left
        (fun acc (f : Ir.func) ->
          if Hashtbl.mem have f.Ir.fname then acc
          else begin
            Hashtbl.replace have f.Ir.fname ();
            Ir.add_func acc f
          end)
        m !module_ref.Ir.funcs
    in
    (* Declare counters. *)
    let m =
      List.fold_left
        (fun acc c ->
          if Ir.find_global acc c = None then
            Ir.add_global acc { Ir.gname = c; ginit = Ir.Gint64 0L; gconst = false; glang = None }
          else acc)
        m (List.sort_uniq compare !all_counters)
    in
    let m = match reset_in with Some h -> insert_counter_reset m ~handler:h (List.sort_uniq compare !all_counters) | None -> m in
    (m, !total)
  end
