(* The verifier as it was before its single-walk rewrite, kept verbatim as
   the differential oracle for [Verify.run]: the base tier [check_func], the
   strict tier [check_func_strict], the non-incremental module entry point, and
   the analysis helpers they read that the library no longer exports
   (string-keyed definition and type tables, operand lists, the linear
   label probe).  Only the test suite uses it. *)

open Quilt_ir

type severity = Verify.severity = Error | Warning

type diagnostic = Verify.diagnostic = {
  code : string;
  severity : severity;
  where : string;
  block : string option;
  message : string;
}

let diag ~code ?(severity = Error) ?block where fmt =
  Printf.ksprintf (fun message -> { code; severity; where; block; message }) fmt

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

(* --- Analysis helpers, as the verifier read them --- *)

let block_index (cfg : Analysis.cfg) label =
  let n = Array.length cfg.Analysis.blocks in
  let rec go i =
    if i >= n then None else if cfg.Analysis.blocks.(i).Ir.label = label then Some i else go (i + 1)
  in
  go 0

type def_site = Def_param | Def_instr of { block : int; index : int }

let instr_dst_ty (i : Ir.instr) =
  match i with
  | Ir.Binop { dst; ty; _ } | Ir.Load { dst; ty; _ } | Ir.Phi { dst; ty; _ } | Ir.Select { dst; ty; _ }
    ->
      Some (dst, ty)
  | Ir.Icmp { dst; _ } -> Some (dst, Ir.I1)
  | Ir.Alloca { dst; _ } | Ir.Gep { dst; _ } -> Some (dst, Ir.Ptr)
  | Ir.Call { dst = Some d; ret; _ } -> Some (d, ret)
  | Ir.Call { dst = None; _ } | Ir.Store _ -> None

let instr_operands (i : Ir.instr) =
  match i with
  | Ir.Binop { lhs; rhs; _ } | Ir.Icmp { lhs; rhs; _ } -> [ lhs; rhs ]
  | Ir.Call { args; _ } -> List.map snd args
  | Ir.Alloca { bytes; _ } -> [ bytes ]
  | Ir.Load { ptr; _ } -> [ ptr ]
  | Ir.Store { src; ptr; _ } -> [ src; ptr ]
  | Ir.Gep { base; offset; _ } -> [ base; offset ]
  | Ir.Phi { incoming; _ } -> List.map fst incoming
  | Ir.Select { cond; if_true; if_false; _ } -> [ cond; if_true; if_false ]

let term_operands (t : Ir.terminator) =
  match t with
  | Ir.Ret (Some (_, v)) -> [ v ]
  | Ir.Cbr { cond; _ } -> [ cond ]
  | Ir.Ret None | Ir.Br _ | Ir.Unreachable -> []

let def_sites (cfg : Analysis.cfg) =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (p, _) -> Hashtbl.replace tbl p Def_param) cfg.Analysis.func.Ir.params;
  Array.iteri
    (fun bi (b : Ir.block) ->
      List.iteri
        (fun ii i ->
          match Analysis.instr_dst i with
          | Some d ->
              if not (Hashtbl.mem tbl d) then
                let index = match i with Ir.Phi _ -> -1 | _ -> ii in
                Hashtbl.add tbl d (Def_instr { block = bi; index })
          | None -> ())
        b.Ir.instrs)
    cfg.Analysis.blocks;
  tbl

let local_types (f : Ir.func) =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (p, ty) -> Hashtbl.replace tbl p ty) f.Ir.params;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          match instr_dst_ty i with
          | Some (d, ty) -> if not (Hashtbl.mem tbl d) then Hashtbl.add tbl d ty
          | None -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  tbl

let type_of_value types (v : Ir.value) =
  match v with
  | Ir.Local l -> Hashtbl.find_opt types l
  | Ir.Const (Ir.Cint (ty, _)) -> Some ty
  | Ir.Const (Ir.Cfloat _) -> Some Ir.F64
  | Ir.Const (Ir.Cnull | Ir.Cglobal _) -> Some Ir.Ptr

(* --- Base tier: name resolution, arity, return consistency --- *)

(* The base tier sees the rest of the module only through two probes:
   [callee_sig name] — the [(param types, ret type)] a call to [name]
   resolves to, if any — and [bound name] — whether [@name] names a global
   or a function.  Everything else it reads is [f] itself. *)
let check_func ~callee_sig ~bound (f : Ir.func) =
  let out = ref [] in
  let add d = out := d :: !out in
  let where = f.Ir.fname in
  let labels = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      if Hashtbl.mem labels b.Ir.label then
        add (diag ~code:"V001" ~block:b.Ir.label where "duplicate label %%%s" b.Ir.label);
      Hashtbl.replace labels b.Ir.label ())
    f.Ir.blocks;
  let locals = Hashtbl.create 32 in
  List.iter (fun (p, _) -> Hashtbl.replace locals p ()) f.Ir.params;
  (* First pass: collect all defined locals (QIR is unordered-SSA: a local
     may be used by a phi in an earlier block). *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match Analysis.instr_dst i with
          | Some d ->
              if Hashtbl.mem locals d then
                add (diag ~code:"V002" ~block:b.Ir.label where "local %%%s defined twice" d);
              Hashtbl.replace locals d ()
          | None -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  List.iter
    (fun (b : Ir.block) ->
      let block = b.Ir.label in
      let check_value v =
        match v with
        | Ir.Local l ->
            if not (Hashtbl.mem locals l) then
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
          | Ir.Call { callee; args; ret; dst } -> (
              List.iter (fun (_, v) -> check_value v) args;
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
          | Ir.Phi { incoming; _ } -> List.iter (fun (_, l) -> check_label l) incoming
          | Ir.Binop _ | Ir.Icmp _ | Ir.Alloca _ | Ir.Load _ | Ir.Store _ | Ir.Gep _ | Ir.Select _
            ->
              ());
          match i with
          | Ir.Call _ -> () (* args checked above *)
          | _ -> List.iter check_value (instr_operands i))
        b.Ir.instrs;
      (match b.Ir.term with
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
      | Ir.Unreachable -> ());
      ())
    f.Ir.blocks;
  (match f.Ir.blocks with
  | { Ir.label = "entry"; _ } :: _ | [] -> ()
  | { Ir.label = l; _ } :: _ ->
      add (diag ~code:"V011" ~block:l where "first block must be entry, found %%%s" l));
  List.rev !out

(* --- Strict tier: dominance, typing, CFG/phi agreement, lints --- *)

let check_func_strict (f : Ir.func) =
  if Ir.is_declaration f then []
  else begin
    let cfg = Analysis.cfg_of_func f in
    let idom = Analysis.dominators cfg in
    let defs = def_sites cfg in
    let types = local_types f in
    let out = ref [] in
    let add d = out := d :: !out in
    let where = f.Ir.fname in
    let ty_of v = type_of_value types v in
    (* [expect ~code ~block what ty v]: operand [v] must type as [ty] when
       its type is known at all (undefined locals are the base tier's
       V003, not re-reported here). *)
    let expect ~code ~block what ty v =
      match ty_of v with
      | Some got when got <> ty ->
          add (diag ~code ~block where "%s must be %s, got %s" what (ty_name ty) (ty_name got))
      | Some _ | None -> ()
    in
    let expect_int ~code ~block what v =
      match ty_of v with
      | Some got when not (is_int_ty got) ->
          add (diag ~code ~block where "%s must be an integer, got %s" what (ty_name got))
      | Some _ | None -> ()
    in
    (* A definition dominates a use at instruction [ii] of block [bi]
       (ii = max_int for the terminator).  Phis define at the top of their
       block (index -1) and bind before the instruction loop runs. *)
    let def_dominates_point l ~bi ~ii =
      match Hashtbl.find_opt defs l with
      | Some Def_param | None -> true
      | Some (Def_instr { block = db; index = di }) ->
          if db = bi then di < ii else Analysis.dominates ~idom db bi
    in
    let def_dominates_block_end l ~bi =
      match Hashtbl.find_opt defs l with
      | Some Def_param | None -> true
      | Some (Def_instr { block = db; _ }) ->
          db = bi || Analysis.dominates ~idom db bi
    in
    Array.iteri
      (fun bi (b : Ir.block) ->
        let block = b.Ir.label in
        let pred_labels =
          List.sort_uniq String.compare
            (List.map (fun p -> cfg.Analysis.blocks.(p).Ir.label) cfg.Analysis.preds.(bi))
        in
        if not cfg.Analysis.reachable.(bi) then
          add
            (diag ~code:"W001" ~severity:Warning ~block where "block %%%s is unreachable" block)
        else begin
          (* S001: every use dominated by its definition. *)
          let check_use ~ii v =
            match v with
            | Ir.Local l ->
                if not (def_dominates_point l ~bi ~ii) then
                  add
                    (diag ~code:"S001" ~block where "use of %%%s is not dominated by its definition"
                       l)
            | Ir.Const _ -> ()
          in
          List.iteri
            (fun ii (i : Ir.instr) ->
              match i with
              | Ir.Phi { incoming; _ } ->
                  List.iter
                    (fun (v, l) ->
                      match v with
                      | Ir.Local x -> (
                          match block_index cfg l with
                          | Some p when List.mem p cfg.Analysis.preds.(bi) ->
                              if not (def_dominates_block_end x ~bi:p) then
                                add
                                  (diag ~code:"S001" ~block where
                                     "phi source %%%s does not dominate the end of %%%s" x l)
                          | Some _ | None -> () (* stray incoming: S007 below *))
                      | Ir.Const _ -> ())
                    incoming
              | _ -> List.iter (check_use ~ii) (instr_operands i))
            b.Ir.instrs;
          List.iter (check_use ~ii:max_int) (term_operands b.Ir.term)
        end;
        List.iter
          (fun (i : Ir.instr) ->
            match i with
            | Ir.Binop { op; ty; lhs; rhs; _ } -> (
                match ty with
                | Ir.F64 ->
                    (match op with
                    | Ir.Add | Ir.Sub | Ir.Mul | Ir.Sdiv -> ()
                    | Ir.Srem | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Lshr ->
                        add (diag ~code:"S002" ~block where "bitwise/rem binop on f64"));
                    expect ~code:"S002" ~block "binop lhs" Ir.F64 lhs;
                    expect ~code:"S002" ~block "binop rhs" Ir.F64 rhs
                | Ir.I1 | Ir.I8 | Ir.I32 | Ir.I64 ->
                    expect ~code:"S002" ~block "binop lhs" ty lhs;
                    expect ~code:"S002" ~block "binop rhs" ty rhs
                | Ir.Ptr | Ir.Void ->
                    add (diag ~code:"S002" ~block where "binop at type %s" (ty_name ty)))
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
                  (fun (v, l) -> expect ~code:"S005" ~block (Printf.sprintf "phi incoming from %%%s" l) ty v)
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
                    expect ~code:"S009" ~block
                      (Printf.sprintf "argument to @%s declared %s" callee (ty_name ty))
                      ty v)
                  args)
          b.Ir.instrs;
        (match b.Ir.term with
        | Ir.Ret (Some (ty, v)) when ty <> Ir.Void -> expect ~code:"S009" ~block "ret operand" ty v
        | Ir.Ret _ | Ir.Br _ | Ir.Unreachable -> ()
        | Ir.Cbr { cond; _ } -> expect ~code:"S009" ~block "cbr condition" Ir.I1 cond);
        (* S007 / S008: phi placement agrees with the CFG. *)
        let phis =
          List.filter_map
            (fun i -> match i with Ir.Phi { dst; incoming; _ } -> Some (dst, incoming) | _ -> None)
            b.Ir.instrs
        in
        if bi = 0 then begin
          match phis with
          | (dst, _) :: _ ->
              add (diag ~code:"S008" ~block where "phi %%%s in entry block" dst)
          | [] -> ()
        end
        else if cfg.Analysis.reachable.(bi) then
          List.iter
            (fun (dst, incoming) ->
              let inc_labels = List.sort_uniq String.compare (List.map snd incoming) in
              if inc_labels <> pred_labels then
                add
                  (diag ~code:"S007" ~block where
                     "phi %%%s incomings {%s} disagree with predecessors {%s}" dst
                     (String.concat ", " inc_labels)
                     (String.concat ", " pred_labels)))
            phis)
      cfg.Analysis.blocks;
    (* W002: stores into slots that are never read. *)
    let dead_slots = Analysis.write_only_slots f in
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
        cfg.Analysis.blocks;
    List.rev !out
  end

(* --- Whole module: V012, then every function's base and strict lists --- *)

let run ?(strict = false) (m : Ir.modul) =
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
  let callee_sig name =
    match Hashtbl.find_opt sigs name with Some s -> Some s | None -> Intrinsics.signature name
  in
  let bound name = Hashtbl.mem globals name || Hashtbl.mem sigs name in
  List.rev !out
  @ List.concat_map
      (fun f -> check_func ~callee_sig ~bound f @ if strict then check_func_strict f else [])
      m.Ir.funcs
