(* Folding environment: SSA locals with known constant or copied value. *)

let fold_binop op a b =
  let open Ir in
  match op with
  | Add -> Some (Int64.add a b)
  | Sub -> Some (Int64.sub a b)
  | Mul -> Some (Int64.mul a b)
  | Sdiv -> if b = 0L then None else Some (Int64.div a b)
  | Srem -> if b = 0L then None else Some (Int64.rem a b)
  | And -> Some (Int64.logand a b)
  | Or -> Some (Int64.logor a b)
  | Xor -> Some (Int64.logxor a b)
  | Shl -> Some (Int64.shift_left a (Int64.to_int b land 63))
  | Lshr -> Some (Int64.shift_right_logical a (Int64.to_int b land 63))

let fold_icmp cmp a b =
  let open Ir in
  let r =
    match cmp with
    | Ceq -> a = b
    | Cne -> a <> b
    | Cslt -> a < b
    | Csle -> a <= b
    | Csgt -> a > b
    | Csge -> a >= b
  in
  if r then 1L else 0L

let map_instr_values f (i : Ir.instr) =
  match i with
  | Ir.Binop r -> Ir.Binop { r with lhs = f r.lhs; rhs = f r.rhs }
  | Ir.Icmp r -> Ir.Icmp { r with lhs = f r.lhs; rhs = f r.rhs }
  | Ir.Call r -> Ir.Call { r with args = List.map (fun (ty, v) -> (ty, f v)) r.args }
  | Ir.Alloca r -> Ir.Alloca { r with bytes = f r.bytes }
  | Ir.Load r -> Ir.Load { r with ptr = f r.ptr }
  | Ir.Store r -> Ir.Store { r with src = f r.src; ptr = f r.ptr }
  | Ir.Gep r -> Ir.Gep { r with base = f r.base; offset = f r.offset }
  | Ir.Phi r -> Ir.Phi { r with incoming = List.map (fun (v, l) -> (f v, l)) r.incoming }
  | Ir.Select r -> Ir.Select { r with cond = f r.cond; if_true = f r.if_true; if_false = f r.if_false }

let subst env v =
  match v with
  | Ir.Local l -> ( match Hashtbl.find_opt env l with Some v' -> v' | None -> v)
  | Ir.Const _ -> v

(* One folding round over a function: substitute known values, record newly
   foldable definitions, and drop the instructions they replace. *)
let fold_round (f : Ir.func) =
  let env : (string, Ir.value) Hashtbl.t = Hashtbl.create 32 in
  let changed = ref false in
  let sub v =
    let v' = subst env v in
    if v' <> v then changed := true;
    v'
  in
  let blocks =
    List.map
      (fun (b : Ir.block) ->
        let instrs =
          List.filter_map
            (fun (i : Ir.instr) ->
              match i with
              | Ir.Binop ({ dst; op; lhs; rhs; _ } as r) -> (
                  let lhs = sub lhs and rhs = sub rhs in
                  match lhs, rhs with
                  | Ir.Const (Ir.Cint (ty, a)), Ir.Const (Ir.Cint (_, b)) -> (
                      match fold_binop op a b with
                      | Some v ->
                          Hashtbl.replace env dst (Ir.Const (Ir.Cint (ty, v)));
                          changed := true;
                          None
                      | None -> Some (Ir.Binop { r with lhs; rhs }))
                  | _ -> Some (Ir.Binop { r with lhs; rhs }))
              | Ir.Icmp ({ dst; cmp; lhs; rhs; _ } as r) -> (
                  let lhs = sub lhs and rhs = sub rhs in
                  match lhs, rhs with
                  | Ir.Const (Ir.Cint (_, a)), Ir.Const (Ir.Cint (_, b)) ->
                      Hashtbl.replace env dst (Ir.Const (Ir.Cint (Ir.I1, fold_icmp cmp a b)));
                      changed := true;
                      None
                  | _ -> Some (Ir.Icmp { r with lhs; rhs }))
              | Ir.Gep { dst; base; offset } -> (
                  let base = sub base and offset = sub offset in
                  match offset with
                  | Ir.Const (Ir.Cint (_, 0L)) ->
                      (* Identity adjustment: pure copy. *)
                      Hashtbl.replace env dst base;
                      changed := true;
                      None
                  | _ -> Some (Ir.Gep { dst; base; offset }))
              | Ir.Select ({ dst; cond; if_true; if_false; _ } as r) -> (
                  let cond = sub cond and if_true = sub if_true and if_false = sub if_false in
                  match cond with
                  | Ir.Const (Ir.Cint (_, c)) ->
                      Hashtbl.replace env dst (if c <> 0L then if_true else if_false);
                      changed := true;
                      None
                  | _ -> Some (Ir.Select { r with cond; if_true; if_false }))
              | Ir.Call ({ args; _ } as r) ->
                  Some (Ir.Call { r with args = List.map (fun (ty, v) -> (ty, sub v)) args })
              | Ir.Alloca ({ bytes; _ } as r) -> Some (Ir.Alloca { r with bytes = sub bytes })
              | Ir.Load ({ ptr; _ } as r) -> Some (Ir.Load { r with ptr = sub ptr })
              | Ir.Store ({ src; ptr; _ } as r) -> Some (Ir.Store { r with src = sub src; ptr = sub ptr })
              | Ir.Phi ({ incoming; _ } as r) ->
                  Some (Ir.Phi { r with incoming = List.map (fun (v, l) -> (sub v, l)) incoming }))
            b.Ir.instrs
        in
        let term =
          match b.Ir.term with
          | Ir.Ret (Some (ty, v)) -> Ir.Ret (Some (ty, sub v))
          | Ir.Cbr { cond; if_true; if_false } -> Ir.Cbr { cond = sub cond; if_true; if_false }
          | (Ir.Ret None | Ir.Br _ | Ir.Unreachable) as t -> t
        in
        { b with Ir.instrs; term })
      f.Ir.blocks
  in
  (* A value defined in a later block may be substituted into an earlier one
     only after the environment is complete; run substitution once more. *)
  let blocks =
    if Hashtbl.length env = 0 then blocks
    else
      List.map
        (fun (b : Ir.block) ->
          let instrs = List.map (map_instr_values (subst env)) b.Ir.instrs in
          let term =
            match b.Ir.term with
            | Ir.Ret (Some (ty, v)) -> Ir.Ret (Some (ty, subst env v))
            | Ir.Cbr { cond; if_true; if_false } -> Ir.Cbr { cond = subst env cond; if_true; if_false }
            | (Ir.Ret None | Ir.Br _ | Ir.Unreachable) as t -> t
          in
          { b with Ir.instrs; term })
        blocks
  in
  ({ f with Ir.blocks }, !changed)

let run_func (f : Ir.func) =
  if Ir.is_declaration f then f
  else begin
    (* A round that changes nothing rebuilds [f] structurally equal: keep
       [f] itself. *)
    let rec fixpoint f rounds =
      if rounds = 0 then f
      else begin
        let f', changed = fold_round f in
        if changed then fixpoint f' (rounds - 1) else f
      end
    in
    fixpoint f 8
  end

let run (m : Ir.modul) = Ir.map_funcs run_func m
