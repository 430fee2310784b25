(* The tree-walking QIR engine: the differential oracle for the QVM.

   It walks [Ir] directly — locals in a string-keyed table, labels and
   callees resolved by name at every step, the intrinsic name re-interned
   on every native call — and shares only the native runtime with the QVM
   ({!Quilt_ir.Interp}: intrinsics, arithmetic, traps, stats).  The QVM
   must match it exactly: responses, trap messages and full stats.  The
   qcheck harness in [test_fuzz.ml] and the parity suite in [test_vm.ml]
   check that; nothing outside the tests runs this engine. *)

open Quilt_ir
open Interp
module Mem = Abi.Mem

type ctx = {
  m : Ir.modul;
  index : string -> Ir.func option;
  rc : rctx;
  globals : (string, int64) Hashtbl.t;
  mutable fuel : int;
}

let materialize_globals ctx =
  List.iter
    (fun (g : Ir.global) ->
      let ptr =
        match g.Ir.ginit with
        | Ir.Gstr s -> Mem.write_cstr ctx.rc.mem s
        | Ir.Gzero n -> Mem.alloc ctx.rc.mem n
        | Ir.Gint64 v ->
            let p = Mem.alloc ctx.rc.mem 8 in
            Mem.store_i64 ctx.rc.mem p v;
            p
      in
      Hashtbl.replace ctx.globals g.Ir.gname ptr)
    ctx.m.Ir.globals

let global_addr ctx name =
  match Hashtbl.find_opt ctx.globals name with
  | Some p -> p
  | None -> trap "reference to unmaterialized global @%s" name

let native ctx name args = exec_intrinsic ctx.rc (intern_intrinsic name) args

let eval ctx env v =
  match v with
  | Ir.Local l -> (
      match Hashtbl.find_opt env l with
      | Some rv -> rv
      | None -> trap "use of unbound local %%%s" l)
  | Ir.Const (Ir.Cint (_, v)) -> VInt v
  | Ir.Const (Ir.Cfloat f) -> VFloat f
  | Ir.Const Ir.Cnull -> VInt 0L
  | Ir.Const (Ir.Cglobal g) -> VInt (global_addr ctx g)

let rec exec_function ctx (f : Ir.func) (args : value list) : value option =
  if Ir.is_declaration f then trap "call to declaration-only @%s" f.Ir.fname;
  let env : (string, value) Hashtbl.t = Hashtbl.create 32 in
  (try List.iter2 (fun (p, _) a -> Hashtbl.replace env p a) f.Ir.params args
   with Invalid_argument _ -> trap "arity mismatch calling @%s" f.Ir.fname);
  let block_of label =
    match List.find_opt (fun (b : Ir.block) -> b.Ir.label = label) f.Ir.blocks with
    | Some b -> b
    | None -> trap "branch to missing label %%%s in @%s" label f.Ir.fname
  in
  let rec run_block prev (b : Ir.block) : value option =
    (* Phis first, evaluated against the predecessor, in parallel. *)
    let phi_updates =
      List.filter_map
        (fun (i : Ir.instr) ->
          match i with
          | Ir.Phi { dst; incoming; _ } -> (
              match prev with
              | None -> trap "phi in entry block of @%s" f.Ir.fname
              | Some pl -> (
                  match List.assoc_opt pl (List.map (fun (v, l) -> (l, v)) incoming) with
                  | Some v -> Some (dst, eval ctx env v)
                  | None -> trap "phi in %%%s has no incoming for %%%s" b.Ir.label pl))
          | _ -> None)
        b.Ir.instrs
    in
    List.iter (fun (d, v) -> Hashtbl.replace env d v) phi_updates;
    List.iter
      (fun (i : Ir.instr) ->
        ctx.fuel <- ctx.fuel - 1;
        ctx.rc.stats.steps <- ctx.rc.stats.steps + 1;
        if ctx.fuel <= 0 then trap "out of fuel";
        match i with
        | Ir.Phi _ -> ()
        | Ir.Binop { dst; op; ty; lhs; rhs } ->
            Hashtbl.replace env dst (exec_binop op ty (eval ctx env lhs) (eval ctx env rhs))
        | Ir.Icmp { dst; cmp; lhs; rhs; _ } ->
            Hashtbl.replace env dst (exec_icmp cmp (eval ctx env lhs) (eval ctx env rhs))
        | Ir.Alloca { dst; bytes } ->
            Hashtbl.replace env dst
              (VInt (Mem.alloc ctx.rc.mem (Int64.to_int (as_int (eval ctx env bytes)))))
        | Ir.Load { dst; ty; ptr } ->
            let p = as_int (eval ctx env ptr) in
            let v =
              match ty with
              | Ir.I8 -> VInt (Int64.of_int (Mem.load_byte ctx.rc.mem p))
              | Ir.I1 -> VInt (Int64.of_int (Mem.load_byte ctx.rc.mem p land 1))
              | Ir.I32 | Ir.I64 | Ir.Ptr -> VInt (Mem.load_i64 ctx.rc.mem p)
              | Ir.F64 -> VFloat (Int64.float_of_bits (Mem.load_i64 ctx.rc.mem p))
              | Ir.Void -> trap "load void"
            in
            Hashtbl.replace env dst v
        | Ir.Store { ty; src; ptr } -> (
            let p = as_int (eval ctx env ptr) in
            let v = eval ctx env src in
            match ty with
            | Ir.I8 | Ir.I1 -> Mem.store_byte ctx.rc.mem p (Int64.to_int (as_int v) land 0xff)
            | Ir.I32 | Ir.I64 | Ir.Ptr -> Mem.store_i64 ctx.rc.mem p (as_int v)
            | Ir.F64 -> Mem.store_i64 ctx.rc.mem p (Int64.bits_of_float (as_float v))
            | Ir.Void -> trap "store void")
        | Ir.Gep { dst; base; offset } ->
            let b = as_int (eval ctx env base) in
            let o = Int64.to_int (as_int (eval ctx env offset)) in
            Hashtbl.replace env dst (VInt (Mem.offset b o))
        | Ir.Select { dst; cond; if_true; if_false; _ } ->
            let c = as_int (eval ctx env cond) in
            Hashtbl.replace env dst (eval ctx env (if c <> 0L then if_true else if_false))
        | Ir.Call { dst; callee; args; _ } -> (
            let argv = List.map (fun (_, v) -> eval ctx env v) args in
            let result =
              match ctx.index callee with
              | Some target when not (Ir.is_declaration target) ->
                  bump_call_count ctx.rc.stats callee;
                  exec_function ctx target argv
              | Some _ | None ->
                  if Intrinsics.mem callee then native ctx callee argv
                  else trap "call to unresolved symbol @%s" callee
            in
            match dst with
            | Some d -> (
                match result with
                | Some v -> Hashtbl.replace env d v
                | None -> trap "void call used as value (@%s)" callee)
            | None -> ()))
      b.Ir.instrs;
    ctx.fuel <- ctx.fuel - 1;
    match b.Ir.term with
    | Ir.Ret None -> None
    | Ir.Ret (Some (_, v)) -> Some (eval ctx env v)
    | Ir.Br l -> run_block (Some b.Ir.label) (block_of l)
    | Ir.Cbr { cond; if_true; if_false } ->
        let c = as_int (eval ctx env cond) in
        run_block (Some b.Ir.label) (block_of (if c <> 0L then if_true else if_false))
    | Ir.Unreachable -> trap "reached unreachable in @%s" f.Ir.fname
  in
  match f.Ir.blocks with
  | entry :: _ -> run_block None entry
  | [] -> trap "empty function @%s" f.Ir.fname

let make_ctx ?(fuel = 20_000_000) ~host m =
  let ctx =
    { m; index = Ir.func_index m; rc = make_rctx ~host (); globals = Hashtbl.create 64; fuel }
  in
  materialize_globals ctx;
  ctx

let find_defined m fname =
  match Ir.func_index m fname with
  | Some f when not (Ir.is_declaration f) -> f
  | Some _ -> trap "@%s is only declared" fname
  | None -> trap "no function @%s" fname

let run_handler ?fuel ~host m ~fname ~req =
  try
    let ctx = make_ctx ?fuel ~host m in
    let f = find_defined m fname in
    ctx.rc.req_ptr <- Mem.write_cstr ctx.rc.mem req;
    let _ = exec_function ctx f [] in
    match ctx.rc.response with
    | Some res -> Ok (res, ctx.rc.stats)
    | None -> Error "handler returned without calling quilt_send_res"
  with
  | Trap msg -> Error msg
  | Mem.Trap msg -> Error ("memory fault: " ^ msg)

let run_local ?fuel ~host m ~fname ~req =
  try
    let ctx = make_ctx ?fuel ~host m in
    let f = find_defined m fname in
    let reqp = Mem.write_cstr ctx.rc.mem req in
    match exec_function ctx f [ VInt reqp ] with
    | Some (VInt resp) -> Ok (Mem.read_cstr ctx.rc.mem resp, ctx.rc.stats)
    | Some (VFloat _) | None -> Error "local function did not return a pointer"
  with
  | Trap msg -> Error msg
  | Mem.Trap msg -> Error ("memory fault: " ^ msg)
