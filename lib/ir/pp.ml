let ty_to_string = function
  | Ir.I1 -> "i1"
  | Ir.I8 -> "i8"
  | Ir.I32 -> "i32"
  | Ir.I64 -> "i64"
  | Ir.F64 -> "f64"
  | Ir.Ptr -> "ptr"
  | Ir.Void -> "void"

let escape_bytes s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      let code = Char.code c in
      if c = '"' || c = '\\' || code < 0x20 || code > 0x7e then
        Buffer.add_string buf (Printf.sprintf "\\%02X" code)
      else Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Untyped operand position: the instruction mnemonic supplies the type. *)
let operand = function
  | Ir.Const (Ir.Cint (_, v)) -> Int64.to_string v
  | Ir.Const (Ir.Cfloat f) -> Printf.sprintf "%h" f
  | Ir.Const Ir.Cnull -> "null"
  | Ir.Const (Ir.Cglobal g) -> "@" ^ g
  | Ir.Local l -> "%" ^ l

let binop_name = function
  | Ir.Add -> "add"
  | Ir.Sub -> "sub"
  | Ir.Mul -> "mul"
  | Ir.Sdiv -> "sdiv"
  | Ir.Srem -> "srem"
  | Ir.And -> "and"
  | Ir.Or -> "or"
  | Ir.Xor -> "xor"
  | Ir.Shl -> "shl"
  | Ir.Lshr -> "lshr"

let cmp_name = function
  | Ir.Ceq -> "eq"
  | Ir.Cne -> "ne"
  | Ir.Cslt -> "slt"
  | Ir.Csle -> "sle"
  | Ir.Csgt -> "sgt"
  | Ir.Csge -> "sge"

let instr_to_string = function
  | Ir.Binop { dst; op; ty; lhs; rhs } ->
      Printf.sprintf "%%%s = %s %s %s, %s" dst (binop_name op) (ty_to_string ty) (operand lhs)
        (operand rhs)
  | Ir.Icmp { dst; cmp; ty; lhs; rhs } ->
      Printf.sprintf "%%%s = icmp %s %s %s, %s" dst (cmp_name cmp) (ty_to_string ty) (operand lhs)
        (operand rhs)
  | Ir.Call { dst; ret; callee; args } ->
      let args_s =
        String.concat ", "
          (List.map (fun (ty, v) -> Printf.sprintf "%s %s" (ty_to_string ty) (operand v)) args)
      in
      let call_s = Printf.sprintf "call %s @%s(%s)" (ty_to_string ret) callee args_s in
      (match dst with Some d -> Printf.sprintf "%%%s = %s" d call_s | None -> call_s)
  | Ir.Alloca { dst; bytes } -> Printf.sprintf "%%%s = alloca i64 %s" dst (operand bytes)
  | Ir.Load { dst; ty; ptr } ->
      Printf.sprintf "%%%s = load %s, ptr %s" dst (ty_to_string ty) (operand ptr)
  | Ir.Store { ty; src; ptr } ->
      Printf.sprintf "store %s %s, ptr %s" (ty_to_string ty) (operand src) (operand ptr)
  | Ir.Gep { dst; base; offset } ->
      Printf.sprintf "%%%s = gep ptr %s, i64 %s" dst (operand base) (operand offset)
  | Ir.Phi { dst; ty; incoming } ->
      let inc =
        String.concat ", "
          (List.map (fun (v, l) -> Printf.sprintf "[ %s, %%%s ]" (operand v) l) incoming)
      in
      Printf.sprintf "%%%s = phi %s %s" dst (ty_to_string ty) inc
  | Ir.Select { dst; ty; cond; if_true; if_false } ->
      Printf.sprintf "%%%s = select i1 %s, %s %s, %s" dst (operand cond) (ty_to_string ty)
        (operand if_true) (operand if_false)

let term_to_string = function
  | Ir.Ret None -> "ret void"
  | Ir.Ret (Some (ty, v)) -> Printf.sprintf "ret %s %s" (ty_to_string ty) (operand v)
  | Ir.Br l -> Printf.sprintf "br label %%%s" l
  | Ir.Cbr { cond; if_true; if_false } ->
      Printf.sprintf "cbr i1 %s, label %%%s, label %%%s" (operand cond) if_true if_false
  | Ir.Unreachable -> "unreachable"

let lang_suffix = function None -> "" | Some l -> Printf.sprintf " lang \"%s\"" l

let func_to_string (f : Ir.func) =
  let params =
    String.concat ", "
      (List.map (fun (p, ty) -> Printf.sprintf "%s %%%s" (ty_to_string ty) p) f.Ir.params)
  in
  let linkage = match f.Ir.linkage with Ir.Internal -> "internal " | Ir.External -> "" in
  if Ir.is_declaration f then
    Printf.sprintf "declare %s @%s(%s)%s" (ty_to_string f.Ir.ret_ty) f.Ir.fname params
      (lang_suffix f.Ir.lang)
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "define %s%s @%s(%s)%s {\n" linkage (ty_to_string f.Ir.ret_ty) f.Ir.fname
         params (lang_suffix f.Ir.lang));
    List.iter
      (fun (b : Ir.block) ->
        Buffer.add_string buf (Printf.sprintf "%s:\n" b.Ir.label);
        List.iter (fun i -> Buffer.add_string buf ("  " ^ instr_to_string i ^ "\n")) b.Ir.instrs;
        Buffer.add_string buf ("  " ^ term_to_string b.Ir.term ^ "\n"))
      f.Ir.blocks;
    Buffer.add_string buf "}";
    Buffer.contents buf
  end

let global_to_string (g : Ir.global) =
  let kind = if g.Ir.gconst then "constant" else "global" in
  let init =
    match g.Ir.ginit with
    | Ir.Gstr s -> Printf.sprintf "str \"%s\"" (escape_bytes s)
    | Ir.Gzero n -> Printf.sprintf "zero %d" n
    | Ir.Gint64 v -> Printf.sprintf "i64 %Ld" v
  in
  Printf.sprintf "@%s = %s %s%s" g.Ir.gname kind init (lang_suffix g.Ir.glang)

let to_string (m : Ir.modul) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "module \"%s\"\n\n" m.Ir.mname);
  List.iter (fun g -> Buffer.add_string buf (global_to_string g ^ "\n")) m.Ir.globals;
  if m.Ir.globals <> [] then Buffer.add_char buf '\n';
  List.iter (fun f -> Buffer.add_string buf (func_to_string f ^ "\n\n")) m.Ir.funcs;
  Buffer.contents buf
