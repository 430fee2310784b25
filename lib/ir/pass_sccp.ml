(* Sparse conditional constant propagation (Wegman–Zadeck).  The lattice
   mirrors the interpreter's value model exactly: integers of any width
   are int64, [Cnull] is integer 0, a global is a symbolic address that
   is never folded through arithmetic.  Folding rules are copied from
   [Interp.exec_binop] / [exec_icmp] minus every case that can trap —
   trapping instructions stay in the program. *)

type konst = KInt of int64 | KFloat of float | KGlobal of string

type lattice = Top | Const of konst | Bottom

let konst_of_const = function
  | Ir.Cint (_, v) -> KInt v
  | Ir.Cfloat f -> KFloat f
  | Ir.Cnull -> KInt 0L
  | Ir.Cglobal g -> KGlobal g

let konst_eq a b =
  match (a, b) with
  | KInt x, KInt y -> Int64.equal x y
  | KFloat x, KFloat y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | KGlobal x, KGlobal y -> String.equal x y
  | (KInt _ | KFloat _ | KGlobal _), _ -> false

let lattice_eq a b =
  match (a, b) with
  | Top, Top | Bottom, Bottom -> true
  | Const x, Const y -> konst_eq x y
  | (Top | Const _ | Bottom), _ -> false

let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Bottom, _ | _, Bottom -> Bottom
  | Const x, Const y -> if konst_eq x y then a else Bottom

(* Never folds a case the interpreter would trap on: integer division or
   remainder by zero, bitwise ops at f64, non-integer compares. *)
let fold_binop op ty a b =
  match (ty, a, b) with
  | Ir.F64, KFloat x, KFloat y -> (
      match op with
      | Ir.Add -> Const (KFloat (x +. y))
      | Ir.Sub -> Const (KFloat (x -. y))
      | Ir.Mul -> Const (KFloat (x *. y))
      | Ir.Sdiv -> Const (KFloat (x /. y))
      | Ir.Srem | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Lshr -> Bottom)
  | (Ir.I1 | Ir.I8 | Ir.I32 | Ir.I64), KInt x, KInt y -> (
      match op with
      | Ir.Add -> Const (KInt (Int64.add x y))
      | Ir.Sub -> Const (KInt (Int64.sub x y))
      | Ir.Mul -> Const (KInt (Int64.mul x y))
      | Ir.Sdiv -> if y = 0L then Bottom else Const (KInt (Int64.div x y))
      | Ir.Srem -> if y = 0L then Bottom else Const (KInt (Int64.rem x y))
      | Ir.And -> Const (KInt (Int64.logand x y))
      | Ir.Or -> Const (KInt (Int64.logor x y))
      | Ir.Xor -> Const (KInt (Int64.logxor x y))
      | Ir.Shl -> Const (KInt (Int64.shift_left x (Int64.to_int y land 63)))
      | Ir.Lshr -> Const (KInt (Int64.shift_right_logical x (Int64.to_int y land 63))))
  | _ -> Bottom

let fold_icmp cmp a b =
  match (a, b) with
  | KInt x, KInt y ->
      let r =
        match cmp with
        | Ir.Ceq -> x = y
        | Ir.Cne -> x <> y
        | Ir.Cslt -> x < y
        | Ir.Csle -> x <= y
        | Ir.Csgt -> x > y
        | Ir.Csge -> x >= y
      in
      Const (KInt (if r then 1L else 0L))
  | _ -> Bottom

(* Deletes constant instructions and substitutes their uses, turns
   branches on known conditions into jumps, and drops blocks and phi
   incomings no execution reaches. *)
let rebuild (f : Ir.func) ~blocks ~lat ~block_exec ~live_incoming =
  let types = Analysis.local_types f in
  (* A constant is substituted at the local's declared type, the way the
     parser reconstructs typed constants from context. *)
  let const_for l =
    match (Hashtbl.find_opt lat l, Hashtbl.find_opt types l) with
    | Some (Const k), Some ty -> (
        match (ty, k) with
        | Ir.F64, KFloat x -> Some (Ir.Cfloat x)
        | Ir.Ptr, KGlobal g -> Some (Ir.Cglobal g)
        | Ir.Ptr, KInt 0L -> Some Ir.Cnull
        | (Ir.I1 | Ir.I8 | Ir.I32 | Ir.I64), KInt x -> Some (Ir.Cint (ty, x))
        | _ -> None)
    | _ -> None
  in
  (* Phis left with a single executable incoming become copies. *)
  let copies : (string, Ir.value) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun bi (b : Ir.block) ->
      if block_exec.(bi) then
        List.iter
          (fun i ->
            match i with
            | Ir.Phi { dst; incoming; _ } when const_for dst = None -> (
                match live_incoming bi incoming with
                | [ (v, _) ] when v <> Ir.Local dst -> Hashtbl.replace copies dst v
                | _ -> ())
            | _ -> ())
          b.Ir.instrs)
    blocks;
  let rec resolve ?(seen = []) v =
    match v with
    | Ir.Local l when not (List.mem l seen) -> (
        match const_for l with
        | Some c -> Ir.Const c
        | None -> (
            match Hashtbl.find_opt copies l with
            | Some v' -> resolve ~seen:(l :: seen) v'
            | None -> v))
    | _ -> v
  in
  let dropped_dst i =
    match Analysis.instr_dst i with
    | Some d -> (
        match i with
        | Ir.Binop _ | Ir.Icmp _ | Ir.Select _ | Ir.Phi _ ->
            const_for d <> None || Hashtbl.mem copies d
        | _ -> false)
    | None -> false
  in
  let rewrite_instr bi (i : Ir.instr) =
    if dropped_dst i then None
    else
      Some
        (match i with
        | Ir.Binop b -> Ir.Binop { b with lhs = resolve b.lhs; rhs = resolve b.rhs }
        | Ir.Icmp c -> Ir.Icmp { c with lhs = resolve c.lhs; rhs = resolve c.rhs }
        | Ir.Call c -> Ir.Call { c with args = List.map (fun (ty, v) -> (ty, resolve v)) c.args }
        | Ir.Alloca a -> Ir.Alloca { a with bytes = resolve a.bytes }
        | Ir.Load l -> Ir.Load { l with ptr = resolve l.ptr }
        | Ir.Store s -> Ir.Store { s with src = resolve s.src; ptr = resolve s.ptr }
        | Ir.Gep g -> Ir.Gep { g with base = resolve g.base; offset = resolve g.offset }
        | Ir.Phi p ->
            let incoming =
              List.map (fun (v, l) -> (resolve v, l)) (live_incoming bi p.incoming)
            in
            Ir.Phi { p with incoming = (if incoming = [] then p.incoming else incoming) }
        | Ir.Select s ->
            Ir.Select
              { s with cond = resolve s.cond; if_true = resolve s.if_true; if_false = resolve s.if_false })
  in
  let rewrite_term (t : Ir.terminator) =
    match t with
    | Ir.Ret (Some (ty, v)) -> Ir.Ret (Some (ty, resolve v))
    | Ir.Cbr { cond; if_true; if_false } -> (
        match resolve cond with
        | Ir.Const c -> (
            match konst_of_const c with
            | KInt x -> Ir.Br (if x <> 0L then if_true else if_false)
            | KFloat _ | KGlobal _ -> Ir.Cbr { cond = resolve cond; if_true; if_false })
        | cond -> Ir.Cbr { cond; if_true; if_false })
    | Ir.Ret None | Ir.Br _ | Ir.Unreachable -> t
  in
  let blocks' =
    List.concat
      (List.mapi
         (fun bi (b : Ir.block) ->
           if not block_exec.(bi) then []
           else
             [
               {
                 b with
                 Ir.instrs = List.filter_map (rewrite_instr bi) b.Ir.instrs;
                 term = rewrite_term b.Ir.term;
               };
             ])
         (Array.to_list blocks))
  in
  { f with Ir.blocks = blocks' }

let run_func (f : Ir.func) =
  let cfg = Analysis.cfg_of_func f in
  let blocks = cfg.Analysis.blocks in
  let n = Array.length blocks in
  let index = cfg.Analysis.index in
  (* Per-block instruction arrays: the use worklist revisits a site by
     (block, index). *)
  let instrs = Array.map (fun (b : Ir.block) -> Array.of_list b.Ir.instrs) blocks in
  (* Use sites per local: (block, instr index) with -1 for the terminator. *)
  let uses : (string, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let note_use bi ii v =
    match v with
    | Ir.Local l -> Hashtbl.replace uses l ((bi, ii) :: Option.value ~default:[] (Hashtbl.find_opt uses l))
    | Ir.Const _ -> ()
  in
  Array.iteri
    (fun bi (b : Ir.block) ->
      Array.iteri (fun ii i -> Analysis.iter_operands (note_use bi ii) i) instrs.(bi);
      List.iter (note_use bi (-1)) (Analysis.term_operands b.Ir.term))
    blocks;
  let lat : (string, lattice) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (p, _) -> Hashtbl.replace lat p Bottom) f.Ir.params;
  let lat_of l = Option.value ~default:Top (Hashtbl.find_opt lat l) in
  let eval v = match v with Ir.Local l -> lat_of l | Ir.Const c -> Const (konst_of_const c) in
  let block_exec = Array.make n false in
  (* Executable edges, keyed [src * n + dst]. *)
  let edge_exec : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let edge_live p bi = Hashtbl.mem edge_exec ((p * n) + bi) in
  let edge_wl = Queue.create () in
  let use_wl = Queue.create () in
  let lower dst v =
    let old = lat_of dst in
    let nv = meet old v in
    if not (lattice_eq nv old) then begin
      Hashtbl.replace lat dst nv;
      List.iter (fun site -> Queue.add site use_wl) (Option.value ~default:[] (Hashtbl.find_opt uses dst))
    end
  in
  let visit_instr bi (i : Ir.instr) =
    match i with
    | Ir.Phi { dst; incoming; _ } ->
        let v =
          List.fold_left
            (fun acc (v, l) ->
              match Hashtbl.find_opt index l with
              | Some p when edge_live p bi -> meet acc (eval v)
              | Some _ | None -> acc)
            Top incoming
        in
        lower dst v
    | Ir.Binop { dst; op; ty; lhs; rhs } -> (
        match (eval lhs, eval rhs) with
        | Const a, Const b -> lower dst (fold_binop op ty a b)
        | Bottom, _ | _, Bottom -> lower dst Bottom
        | Top, _ | _, Top -> ())
    | Ir.Icmp { dst; cmp; lhs; rhs; _ } -> (
        match (eval lhs, eval rhs) with
        | Const a, Const b -> lower dst (fold_icmp cmp a b)
        | Bottom, _ | _, Bottom -> lower dst Bottom
        | Top, _ | _, Top -> ())
    | Ir.Select { dst; cond; if_true; if_false; _ } -> (
        match eval cond with
        | Const (KInt c) -> lower dst (eval (if c <> 0L then if_true else if_false))
        | Const (KFloat _ | KGlobal _) | Bottom -> lower dst (meet (eval if_true) (eval if_false))
        | Top -> ())
    | Ir.Call { dst = Some d; _ } -> lower d Bottom
    | Ir.Alloca { dst; _ } | Ir.Load { dst; _ } | Ir.Gep { dst; _ } -> lower dst Bottom
    | Ir.Call { dst = None; _ } | Ir.Store _ -> ()
  in
  let visit_term bi (t : Ir.terminator) =
    let mark l =
      match Hashtbl.find_opt index l with Some d -> Queue.add (bi, d) edge_wl | None -> ()
    in
    match t with
    | Ir.Br l -> mark l
    | Ir.Cbr { cond; if_true; if_false } -> (
        match eval cond with
        | Const (KInt c) -> mark (if c <> 0L then if_true else if_false)
        | Top -> ()
        | Const (KFloat _ | KGlobal _) | Bottom ->
            mark if_true;
            mark if_false)
    | Ir.Ret _ | Ir.Unreachable -> ()
  in
  let visit_block bi =
    Array.iter (visit_instr bi) instrs.(bi);
    visit_term bi blocks.(bi).Ir.term
  in
  block_exec.(0) <- true;
  visit_block 0;
  let progress = ref true in
  while !progress do
    progress := false;
    while not (Queue.is_empty edge_wl) do
      progress := true;
      let (a, b) = Queue.pop edge_wl in
      if not (edge_live a b) then begin
        Hashtbl.replace edge_exec ((a * n) + b) ();
        if not block_exec.(b) then begin
          block_exec.(b) <- true;
          visit_block b
        end
        else
          (* Only the phis can see the new incoming edge. *)
          Array.iter (fun i -> match i with Ir.Phi _ -> visit_instr b i | _ -> ()) instrs.(b)
      end
    done;
    while not (Queue.is_empty use_wl) do
      progress := true;
      let (bi, ii) = Queue.pop use_wl in
      if block_exec.(bi) then
        if ii = -1 then visit_term bi blocks.(bi).Ir.term
        else visit_instr bi instrs.(bi).(ii)
    done
  done;
  let live_incoming bi incoming =
    List.filter
      (fun ((_ : Ir.value), l) ->
        match Hashtbl.find_opt index l with Some p -> edge_live p bi | None -> false)
      incoming
  in
  (* Nothing folds when every block ran, no local is constant, no phi
     loses an incoming or collapses to a copy, and no branch tests a
     literal integer: the rebuild would reproduce [f]. *)
  let folds_phi bi (i : Ir.instr) =
    match i with
    | Ir.Phi { dst; incoming; _ } -> (
        match live_incoming bi incoming with
        | [ (v, _) ] -> v <> Ir.Local dst || List.compare_length_with incoming 1 <> 0
        | live -> List.compare_lengths live incoming <> 0)
    | _ -> false
  in
  let folds_term (t : Ir.terminator) =
    match t with
    | Ir.Cbr { cond = Ir.Const c; _ } -> (
        match konst_of_const c with KInt _ -> true | KFloat _ | KGlobal _ -> false)
    | Ir.Cbr _ | Ir.Ret _ | Ir.Br _ | Ir.Unreachable -> false
  in
  let rec clean_from bi =
    bi = n
    || (not (Array.exists (folds_phi bi) instrs.(bi)))
       && (not (folds_term blocks.(bi).Ir.term))
       && clean_from (bi + 1)
  in
  let nothing_folds =
    Array.for_all Fun.id block_exec
    && Hashtbl.fold (fun _ v ok -> ok && match v with Const _ -> false | Top | Bottom -> true) lat true
    && clean_from 0
  in
  if nothing_folds then f else rebuild f ~blocks ~lat ~block_exec ~live_incoming

let run (m : Ir.modul) =
  Ir.map_funcs (fun f -> if Ir.is_declaration f then f else run_func f) m
