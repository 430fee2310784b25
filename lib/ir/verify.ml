type severity = Error | Warning

type diagnostic = {
  code : string;
  severity : severity;
  where : string;
  block : string option;
  message : string;
}

let diag ~code ?(severity = Error) ?block where fmt =
  Printf.ksprintf (fun message -> { code; severity; where; block; message }) fmt

let to_string d =
  Printf.sprintf "%s %s [%s%s] %s" d.code
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.where
    (match d.block with Some b -> ":" ^ b | None -> "")
    d.message

let ty_name = function
  | Ir.I1 -> "i1"
  | Ir.I8 -> "i8"
  | Ir.I32 -> "i32"
  | Ir.I64 -> "i64"
  | Ir.F64 -> "f64"
  | Ir.Ptr -> "ptr"
  | Ir.Void -> "void"

let is_int_ty = function
  | Ir.I1 | Ir.I8 | Ir.I32 | Ir.I64 -> true
  | Ir.F64 | Ir.Ptr | Ir.Void -> false

(* --- Per-function checks ---

   One walk builds the tables both tiers read: the CFG's label → block
   index (V001, V009, phi sources) and a local → id table over per-id
   arrays of definition block ([-1] for a parameter), index ([-1] for a
   phi) and type (V002, V003, S001, S00x).  The first definition wins, but
   a repeated parameter takes the last one's type.  The base tier sees the
   rest of the module only through two probes: [callee_sig name], the
   [(param types, ret type)] a call to [name] resolves to, and [bound
   name], whether [@name] names a global or a function. *)
let check_func ~strict ~callee_sig ~bound (f : Ir.func) =
  let out = ref [] in
  let add d = out := d :: !out in
  let where = f.Ir.fname in
  let cfg = Analysis.cfg_of_func f in
  let blocks = cfg.Analysis.blocks and labels = cfg.Analysis.index in
  Array.iteri
    (fun bi (b : Ir.block) ->
      if Hashtbl.find labels b.Ir.label <> bi then
        add (diag ~code:"V001" ~block:b.Ir.label where "duplicate label %%%s" b.Ir.label))
    blocks;
  let n =
    Array.fold_left
      (fun n (b : Ir.block) -> n + List.length b.Ir.instrs)
      (List.length f.Ir.params) blocks
  in
  let ids = Hashtbl.create n in
  let def_block = Array.make n (-1) and def_index = Array.make n (-1) in
  let tys = Array.make n Ir.Void in
  let fresh name =
    let id = Hashtbl.length ids in
    Hashtbl.add ids name id;
    id
  in
  List.iter
    (fun (p, ty) ->
      match Hashtbl.find ids p with
      | id -> tys.(id) <- ty
      | exception Not_found -> tys.(fresh p) <- ty)
    f.Ir.params;
  let define bi ii (b : Ir.block) d ty =
    if Hashtbl.mem ids d then
      add (diag ~code:"V002" ~block:b.Ir.label where "local %%%s defined twice" d)
    else begin
      let id = fresh d in
      def_block.(id) <- bi;
      def_index.(id) <- ii;
      tys.(id) <- ty
    end
  in
  let has_alloca = ref false in
  Array.iteri
    (fun bi (b : Ir.block) ->
      List.iteri
        (fun ii (i : Ir.instr) ->
          match i with
          | Ir.Binop { dst; ty; _ } | Ir.Load { dst; ty; _ } | Ir.Select { dst; ty; _ } ->
              define bi ii b dst ty
          | Ir.Phi { dst; ty; _ } -> define bi (-1) b dst ty
          | Ir.Icmp { dst; _ } -> define bi ii b dst Ir.I1
          | Ir.Alloca { dst; _ } ->
              has_alloca := true;
              define bi ii b dst Ir.Ptr
          | Ir.Gep { dst; _ } -> define bi ii b dst Ir.Ptr
          | Ir.Call { dst = Some d; ret; _ } -> define bi ii b d ret
          | Ir.Call { dst = None; _ } | Ir.Store _ -> ())
        b.Ir.instrs)
    blocks;
  (* Base tier: name resolution, arity, return consistency. *)
  Array.iter
    (fun (b : Ir.block) ->
      let block = b.Ir.label in
      let check_value v =
        match v with
        | Ir.Local l ->
            if not (Hashtbl.mem ids l) then
              add (diag ~code:"V003" ~block where "use of undefined local %%%s" l)
        | Ir.Const (Ir.Cglobal g) ->
            if not (bound g) then
              add (diag ~code:"V004" ~block where "reference to undefined global @%s" g)
        | Ir.Const (Ir.Cint _ | Ir.Cfloat _ | Ir.Cnull) -> ()
      in
      let check_label l =
        if not (Hashtbl.mem labels l) then
          add (diag ~code:"V009" ~block where "branch to undefined label %%%s" l)
      in
      List.iter
        (fun (i : Ir.instr) ->
          (match i with
          | Ir.Phi { incoming; _ } -> List.iter (fun (_, l) -> check_label l) incoming
          | _ -> ());
          Analysis.iter_operands check_value i;
          match i with
          | Ir.Call { callee; args; ret; dst } -> (
              (match callee_sig callee with
              | None -> add (diag ~code:"V005" ~block where "call to unknown function @%s" callee)
              | Some (ptys, rty) ->
                  if List.length ptys <> List.length args then
                    add
                      (diag ~code:"V006" ~block where "call to @%s with %d args, expected %d" callee
                         (List.length args) (List.length ptys))
                  else
                    List.iter2
                      (fun expected (got, _) ->
                        if expected <> got then
                          add
                            (diag ~code:"V007" ~block where "call to @%s argument type mismatch"
                               callee))
                      ptys args;
                  if rty <> ret then
                    add (diag ~code:"V008" ~block where "call to @%s return type mismatch" callee));
              match dst with
              | Some d when ret = Ir.Void ->
                  add
                    (diag ~code:"V013" ~block where
                       "void call to @%s must not bind a destination (%%%s)" callee d)
              | Some _ | None -> ())
          | _ -> ())
        b.Ir.instrs;
      match b.Ir.term with
      | Ir.Ret None ->
          if f.Ir.ret_ty <> Ir.Void then
            add (diag ~code:"V010" ~block where "ret void in %s function" (ty_name f.Ir.ret_ty))
      | Ir.Ret (Some (ty, v)) ->
          check_value v;
          if f.Ir.ret_ty = Ir.Void then
            add (diag ~code:"V010" ~block where "ret with a value in void function")
          else if ty <> f.Ir.ret_ty then
            add
              (diag ~code:"V010" ~block where "ret type %s, function returns %s" (ty_name ty)
                 (ty_name f.Ir.ret_ty))
      | Ir.Br l -> check_label l
      | Ir.Cbr { cond; if_true; if_false } ->
          check_value cond;
          check_label if_true;
          check_label if_false
      | Ir.Unreachable -> ())
    blocks;
  (match f.Ir.blocks with
  | { Ir.label = "entry"; _ } :: _ | [] -> ()
  | { Ir.label = l; _ } :: _ ->
      add (diag ~code:"V011" ~block:l where "first block must be entry, found %%%s" l));
  if strict && not (Ir.is_declaration f) then begin
    (* Strict tier: dominance, typing, CFG/phi agreement, lints. *)
    let idom = Analysis.dominators cfg in
    let preds = cfg.Analysis.preds and reachable = cfg.Analysis.reachable in
    (* Raises [Not_found] for an undefined local: the base tier's V003, not
       re-reported here. *)
    let type_of v =
      match v with
      | Ir.Local l -> tys.(Hashtbl.find ids l)
      | Ir.Const (Ir.Cint (ty, _)) -> ty
      | Ir.Const (Ir.Cfloat _) -> Ir.F64
      | Ir.Const (Ir.Cnull | Ir.Cglobal _) -> Ir.Ptr
    in
    (* [v]'s type when it is known and not [ty]. *)
    let wrong ty v =
      match type_of v with got when got <> ty -> Some got | _ -> None | exception Not_found -> None
    in
    let expect ~code ~block what ty v =
      match wrong ty v with
      | Some got ->
          add (diag ~code ~block where "%s must be %s, got %s" what (ty_name ty) (ty_name got))
      | None -> ()
    in
    let expect_int ~code ~block what v =
      match type_of v with
      | got when not (is_int_ty got) ->
          add (diag ~code ~block where "%s must be an integer, got %s" what (ty_name got))
      | _ -> ()
      | exception Not_found -> ()
    in
    (* A definition dominates a use at instruction [ii] of block [bi]
       (ii = max_int for the terminator, or for the end of a phi source's
       block).  Parameters and undefined locals dominate everything. *)
    let dominated l ~bi ~ii =
      match Hashtbl.find ids l with
      | id ->
          let db = def_block.(id) in
          db < 0 || if db = bi then def_index.(id) < ii else Analysis.dominates ~idom db bi
      | exception Not_found -> true
    in
    Array.iteri
      (fun bi (b : Ir.block) ->
        let block = b.Ir.label in
        if not reachable.(bi) then
          add
            (diag ~code:"W001" ~severity:Warning ~block where "block %%%s is unreachable" block)
        else begin
          (* S001: every use dominated by its definition. *)
          let ii = ref 0 in
          let check_use v =
            match v with
            | Ir.Local l ->
                if not (dominated l ~bi ~ii:!ii) then
                  add
                    (diag ~code:"S001" ~block where "use of %%%s is not dominated by its definition"
                       l)
            | Ir.Const _ -> ()
          in
          List.iter
            (fun (i : Ir.instr) ->
              (match i with
              | Ir.Phi { incoming; _ } ->
                  List.iter
                    (fun (v, l) ->
                      match v with
                      | Ir.Local x -> (
                          match Hashtbl.find labels l with
                          | p ->
                              if List.mem p preds.(bi) && not (dominated x ~bi:p ~ii:max_int) then
                                add
                                  (diag ~code:"S001" ~block where
                                     "phi source %%%s does not dominate the end of %%%s" x l)
                          | exception Not_found -> () (* stray incoming: S007 below *))
                      | Ir.Const _ -> ())
                    incoming
              | _ -> Analysis.iter_operands check_use i);
              incr ii)
            b.Ir.instrs;
          ii := max_int;
          match b.Ir.term with
          | Ir.Ret (Some (_, v)) | Ir.Cbr { cond = v; _ } -> check_use v
          | Ir.Ret None | Ir.Br _ | Ir.Unreachable -> ()
        end;
        List.iter
          (fun (i : Ir.instr) ->
            match i with
            | Ir.Binop { ty = (Ir.Ptr | Ir.Void) as ty; _ } ->
                add (diag ~code:"S002" ~block where "binop at type %s" (ty_name ty))
            | Ir.Binop { op; ty; lhs; rhs; _ } ->
                (match (ty, op) with
                | Ir.F64, (Ir.Srem | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Lshr) ->
                    add (diag ~code:"S002" ~block where "bitwise/rem binop on f64")
                | _ -> ());
                expect ~code:"S002" ~block "binop lhs" ty lhs;
                expect ~code:"S002" ~block "binop rhs" ty rhs
            | Ir.Icmp { ty; lhs; rhs; _ } ->
                if ty = Ir.Void then add (diag ~code:"S003" ~block where "icmp at type void");
                expect ~code:"S003" ~block "icmp lhs" ty lhs;
                expect ~code:"S003" ~block "icmp rhs" ty rhs
            | Ir.Select { ty; cond; if_true; if_false; _ } ->
                if ty = Ir.Void then add (diag ~code:"S004" ~block where "select at type void");
                expect ~code:"S004" ~block "select condition" Ir.I1 cond;
                expect ~code:"S004" ~block "select true arm" ty if_true;
                expect ~code:"S004" ~block "select false arm" ty if_false
            | Ir.Phi { ty; incoming; _ } ->
                if ty = Ir.Void then add (diag ~code:"S005" ~block where "phi at type void");
                List.iter
                  (fun (v, l) ->
                    match wrong ty v with
                    | Some got ->
                        add
                          (diag ~code:"S005" ~block where "phi incoming from %%%s must be %s, got %s"
                             l (ty_name ty) (ty_name got))
                    | None -> ())
                  incoming
            | Ir.Load { ty; ptr; _ } ->
                if ty = Ir.Void then add (diag ~code:"S006" ~block where "load at type void");
                expect ~code:"S006" ~block "load pointer" Ir.Ptr ptr
            | Ir.Store { ty; src; ptr } ->
                if ty = Ir.Void then add (diag ~code:"S006" ~block where "store at type void");
                expect ~code:"S006" ~block "store source" ty src;
                expect ~code:"S006" ~block "store pointer" Ir.Ptr ptr
            | Ir.Alloca { bytes; _ } -> expect_int ~code:"S006" ~block "alloca size" bytes
            | Ir.Gep { base; offset; _ } ->
                expect ~code:"S006" ~block "gep base" Ir.Ptr base;
                expect_int ~code:"S006" ~block "gep offset" offset
            | Ir.Call { callee; args; _ } ->
                List.iter
                  (fun (ty, v) ->
                    match wrong ty v with
                    | Some got ->
                        add
                          (diag ~code:"S009" ~block where
                             "argument to @%s declared %s must be %s, got %s" callee (ty_name ty)
                             (ty_name ty) (ty_name got))
                    | None -> ())
                  args)
          b.Ir.instrs;
        (match b.Ir.term with
        | Ir.Ret (Some (ty, v)) when ty <> Ir.Void -> expect ~code:"S009" ~block "ret operand" ty v
        | Ir.Ret _ | Ir.Br _ | Ir.Unreachable -> ()
        | Ir.Cbr { cond; _ } -> expect ~code:"S009" ~block "cbr condition" Ir.I1 cond);
        (* S007 / S008: phi placement agrees with the CFG. *)
        if bi = 0 then
          Option.iter
            (fun dst -> add (diag ~code:"S008" ~block where "phi %%%s in entry block" dst))
            (List.find_map (function Ir.Phi { dst; _ } -> Some dst | _ -> None) b.Ir.instrs)
        else if reachable.(bi) && List.exists (function Ir.Phi _ -> true | _ -> false) b.Ir.instrs then begin
          let pred_labels =
            List.sort_uniq String.compare (List.map (fun p -> blocks.(p).Ir.label) preds.(bi))
          in
          List.iter
            (function
              | Ir.Phi { dst; incoming; _ } ->
                  let inc_labels = List.sort_uniq String.compare (List.map snd incoming) in
                  if inc_labels <> pred_labels then
                    add
                      (diag ~code:"S007" ~block where
                         "phi %%%s incomings {%s} disagree with predecessors {%s}" dst
                         (String.concat ", " inc_labels)
                         (String.concat ", " pred_labels))
              | _ -> ())
            b.Ir.instrs
        end)
      blocks;
    (* W002: stores into slots that are never read. *)
    let dead_slots = if !has_alloca then Analysis.write_only_slots f else Analysis.SS.empty in
    if not (Analysis.SS.is_empty dead_slots) then
      Array.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun i ->
              match i with
              | Ir.Store { ptr = Ir.Local p; _ } when Analysis.SS.mem p dead_slots ->
                  add
                    (diag ~code:"W002" ~severity:Warning ~block:b.Ir.label where
                       "store to %%%s, a slot that is never read" p)
              | _ -> ())
            b.Ir.instrs)
        blocks
  end;
  List.rev !out

(* --- Merge-interference analyzer --- *)

let member_of fname =
  let try_suffix suf =
    let n = String.length fname and k = String.length suf in
    if n > k && String.sub fname (n - k) k = suf then Some (String.sub fname 0 (n - k)) else None
  in
  match try_suffix "__handler" with Some m -> Some m | None -> try_suffix "__local"

let interference (m : Ir.modul) =
  let out = ref [] in
  let add d = out := d :: !out in
  (* M001: a name bound in both namespaces makes @name ambiguous. *)
  let fnames = Hashtbl.create 64 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace fnames f.Ir.fname ()) m.Ir.funcs;
  List.iter
    (fun (g : Ir.global) ->
      if Hashtbl.mem fnames g.Ir.gname then
        add (diag ~code:"M001" "module" "@%s is both a function and a global" g.Ir.gname))
    m.Ir.globals;
  (* M002: a mutable global written by two or more members. *)
  let gidx = Ir.global_index m in
  let writers : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      match member_of f.Ir.fname with
      | None -> ()
      | Some member ->
          List.iter
            (fun (b : Ir.block) ->
              List.iter
                (fun i ->
                  match i with
                  | Ir.Store { ptr = Ir.Const (Ir.Cglobal g); _ } -> (
                      match gidx g with
                      | Some gl when not gl.Ir.gconst ->
                          let seen = Option.value ~default:[] (Hashtbl.find_opt writers g) in
                          if not (List.mem member seen) then
                            Hashtbl.replace writers g (member :: seen)
                      | Some _ | None -> ())
                  | _ -> ())
                b.Ir.instrs)
            f.Ir.blocks)
    m.Ir.funcs;
  Hashtbl.iter
    (fun g members ->
      if List.length members > 1 then
        add
          (diag ~code:"M002" ~severity:Warning "module" "global @%s is written by members %s" g
             (String.concat ", " (List.sort String.compare members))))
    writers;
  (* M003: cross-language call sites whose declared types disagree with
     the callee — a broken ABI shim. *)
  let fidx = Ir.func_index m in
  List.iter
    (fun (f : Ir.func) ->
      match f.Ir.lang with
      | None -> ()
      | Some caller_lang ->
          List.iter
            (fun (b : Ir.block) ->
              List.iter
                (fun i ->
                  match i with
                  | Ir.Call { callee; args; ret; _ } -> (
                      match fidx callee with
                      | Some target -> (
                          match target.Ir.lang with
                          | Some callee_lang when callee_lang <> caller_lang ->
                              let ptys = List.map snd target.Ir.params in
                              if
                                List.length ptys <> List.length args
                                || List.exists2 (fun p (a, _) -> p <> a) ptys args
                                || ret <> target.Ir.ret_ty
                              then
                                add
                                  (diag ~code:"M003" ~block:b.Ir.label f.Ir.fname
                                     "%s -> %s call to @%s crosses an ABI boundary with \
                                      mismatched types"
                                     caller_lang callee_lang callee)
                          | Some _ | None -> ())
                      | None -> ())
                  | _ -> ())
                b.Ir.instrs)
            f.Ir.blocks)
    m.Ir.funcs;
  List.rev !out

(* --- Entry points ---

   One code path serves both the one-shot [run] and the merge pipeline's
   per-stage checks: [incremental] keeps, per function name, the function
   last verified, the names its base check probed, and its diagnostics.
   A function that is [==] or structurally equal to its predecessor, none
   of whose probed names resolves differently than in the previous module,
   gets the same diagnostics by construction: the strict tier reads only
   the function, and the base tier reads only the function and its probes.
   Module-level duplicate checks (V012) are recomputed every time. *)

(* All a base-tier probe can observe of a module: the signature of the
   first function bound to each name, and which names are globals.
   Intrinsic signatures are fixed, so they need no entry. *)
type env = {
  sigs : (string, Ir.ty list * Ir.ty) Hashtbl.t;
  globals : (string, unit) Hashtbl.t;
}

(* The module's [env], plus its V012 duplicate-symbol findings. *)
let env_of (m : Ir.modul) =
  let out = ref [] in
  let sigs = Hashtbl.create 64 in
  List.iter
    (fun (f : Ir.func) ->
      if Hashtbl.mem sigs f.Ir.fname then
        out := diag ~code:"V012" "module" "duplicate symbol @%s" f.Ir.fname :: !out
      else Hashtbl.add sigs f.Ir.fname (List.map snd f.Ir.params, f.Ir.ret_ty))
    m.Ir.funcs;
  let globals = Hashtbl.create 64 in
  List.iter
    (fun (g : Ir.global) ->
      if Hashtbl.mem globals g.Ir.gname then
        out := diag ~code:"V012" "module" "duplicate global @%s" g.Ir.gname :: !out
      else Hashtbl.add globals g.Ir.gname ())
    m.Ir.globals;
  ({ sigs; globals }, List.rev !out)

(* Names some probe answers differently in [a] and [b]. *)
let changed_names a b =
  let changed = Hashtbl.create 8 in
  let missing_from x y =
    Hashtbl.iter
      (fun name v ->
        match Hashtbl.find_opt y name with
        | Some v' when v = v' -> ()
        | Some _ | None -> Hashtbl.replace changed name ())
      x
  in
  missing_from a.sigs b.sigs;
  missing_from b.sigs a.sigs;
  missing_from a.globals b.globals;
  missing_from b.globals a.globals;
  changed

type memo_entry = { m_func : Ir.func; m_probed : string list; m_diags : diagnostic list }

let incremental ~strict () =
  let memo = ref (Hashtbl.create 0) in
  let prev_env = ref { sigs = Hashtbl.create 0; globals = Hashtbl.create 0 } in
  fun (m : Ir.modul) ->
    let env, module_diags = env_of m in
    let changed = lazy (changed_names !prev_env env) in
    let verify (f : Ir.func) =
      let probed = ref [] in
      let callee_sig name =
        probed := name :: !probed;
        match Hashtbl.find env.sigs name with
        | s -> Some s
        | exception Not_found -> Intrinsics.signature name
      in
      let bound name =
        probed := name :: !probed;
        Hashtbl.mem env.globals name || Hashtbl.mem env.sigs name
      in
      let diags = check_func ~strict ~callee_sig ~bound f in
      { m_func = f; m_probed = !probed; m_diags = diags }
    in
    let reusable e (f : Ir.func) =
      (e.m_func == f || compare e.m_func f = 0)
      &&
      let changed = Lazy.force changed in
      Hashtbl.length changed = 0 || not (List.exists (Hashtbl.mem changed) e.m_probed)
    in
    let next = Hashtbl.create (List.length m.Ir.funcs) in
    let func_diags =
      List.concat_map
        (fun (f : Ir.func) ->
          let e =
            match Hashtbl.find_opt !memo f.Ir.fname with
            | Some e when reusable e f -> e
            | Some _ | None -> verify f
          in
          Hashtbl.replace next f.Ir.fname e;
          e.m_diags)
        m.Ir.funcs
    in
    memo := next;
    prev_env := env;
    module_diags @ func_diags

let run ?(strict = false) m = incremental ~strict () m

let raise_errors ?stage diags =
  match List.filter (fun d -> d.severity = Error) diags with
  | [] -> ()
  | diags ->
      let msgs = List.map to_string diags in
      let prefix = match stage with None -> "Verify" | Some s -> "Verify[" ^ s ^ "]" in
      failwith (prefix ^ ": " ^ String.concat "; " msgs)

let check_exn m = raise_errors (run m)

let stage_checker ~strict () =
  let check = incremental ~strict () in
  fun ~stage m -> raise_errors ~stage (check m)
