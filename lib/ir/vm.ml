(* The slot-resolved executor for Compile.prog.

   Exact observational equivalence with the tree-walking oracle
   (test/treewalk.ml) is the contract; every evaluation-order quirk of the
   tree-walker is reproduced here and cross-checked by the differential
   harness in test_fuzz.ml:
   - Binop/Icmp evaluate rhs before lhs (OCaml right-to-left application in
     the tree-walker);
   - Store evaluates the pointer before the value; Gep base before offset;
     Select only the chosen arm; call arguments left to right;
   - fuel is decremented and steps bumped per instruction (phi positions
     included, as Cnop) with the out-of-fuel check after the decrement;
     terminators cost one fuel with no check and no step;
   - stats.calls is bumped before the callee's arity check;
   - phi moves run at block entry, in parallel, charged no fuel. *)

module Mem = Abi.Mem
open Compile

type rt = {
  prog : prog;
  rc : Interp.rctx;
  gvals : Interp.value array;  (* pre-boxed addresses, one per prog.globals *)
  mutable fuel : int;
}

(* Unbound-slot sentinel, recognised by physical equality.  Operand
   constants are boxed separately at compile time, so no program value can
   alias it. *)
let unbound : Interp.value = Interp.VFloat nan

(* Runs [f] on a runtime whose heap holds exactly the program's globals.
   The globals template is materialized once per program (lazily, so a
   trapping initializer traps here, inside the runner's handler); each
   request restores the heap image with a few blits into the program's
   spare heap, taken here and handed back whatever [f] does, so a warm
   program allocates no arena per request.  A run that finds no spare (the
   first, or one nested in or concurrent with another run of the program)
   starts from an empty heap, grown to need by the restore.  [gvals] is
   read-only after creation and so shared across requests. *)
let with_rt ~fuel ~host prog f =
  let snap, gvals = Compile.template prog in
  let mem = match Atomic.exchange prog.spare None with Some m -> m | None -> Mem.empty () in
  Fun.protect
    ~finally:(fun () -> Atomic.set prog.spare (Some mem))
    (fun () ->
      Mem.restore snap mem;
      f { prog; rc = Interp.make_rctx ~mem ~host (); gvals; fuel })

let eval_op rt (slots : Interp.value array) (f : cfunc) (op : operand) : Interp.value =
  match op with
  | Oslot i ->
      let v = Array.unsafe_get slots i in
      if v == unbound then Interp.trap "use of unbound local %%%s" f.slot_names.(i) else v
  | Oconst v -> v
  | Oglobal i -> rt.gvals.(i)
  | Omissing_global g -> Interp.trap "reference to unmaterialized global @%s" g

let rec exec_func rt fi (args : Interp.value list) : Interp.value option =
  let f = rt.prog.funcs.(fi) in
  if not f.defined then Interp.trap "call to declaration-only @%s" f.cname;
  let slots = Array.make f.nslots unbound in
  (* Progressive binding with a trap at the first length mismatch, like the
     tree-walker's List.iter2; duplicate param names share a slot, so later
     arguments win. *)
  let rec bind i = function
    | [] -> if i <> f.nparams then Interp.trap "arity mismatch calling @%s" f.cname
    | a :: rest ->
        if i >= f.nparams then Interp.trap "arity mismatch calling @%s" f.cname;
        slots.(f.param_slots.(i)) <- a;
        bind (i + 1) rest
  in
  bind 0 args;
  if f.entry_phi then Interp.trap "phi in entry block of @%s" f.cname;
  exec_block rt f slots 0

and take_edge rt (f : cfunc) slots (e : cedge) : int =
  match e with
  | Emissing msg -> raise (Interp.Trap msg)
  | Eok { blk; moves } -> (
      (* Parallel moves: all sources read before any destination is
         written.  One- and two-move edges (the overwhelmingly common
         shapes — a loop counter, or counter plus accumulator) are done in
         registers; wider edges fall back to a temporary array. *)
      match moves with
      | [||] -> blk
      | [| Mv (d, s) |] ->
          slots.(d) <- eval_op rt slots f s;
          blk
      | [| Mv (d1, s1); Mv (d2, s2) |] ->
          let v1 = eval_op rt slots f s1 in
          let v2 = eval_op rt slots f s2 in
          slots.(d1) <- v1;
          slots.(d2) <- v2;
          blk
      | _ ->
          let n = Array.length moves in
          let tmp = Array.make n unbound in
          for i = 0 to n - 1 do
            match Array.unsafe_get moves i with
            | Mv (_, src) -> tmp.(i) <- eval_op rt slots f src
            | Mtrap msg -> raise (Interp.Trap msg)
          done;
          for i = 0 to n - 1 do
            match Array.unsafe_get moves i with
            | Mv (dst, _) -> slots.(dst) <- tmp.(i)
            | Mtrap _ -> ()
          done;
          blk)

and exec_block rt (f : cfunc) slots bi : Interp.value option =
  let b = Array.unsafe_get f.blocks bi in
  let instrs = b.instrs in
  let n = Array.length instrs in
  let rc = rt.rc in
  let st = rc.Interp.stats in
  for i = 0 to n - 1 do
    rt.fuel <- rt.fuel - 1;
    st.Interp.steps <- st.Interp.steps + 1;
    if rt.fuel <= 0 then Interp.trap "out of fuel";
    match Array.unsafe_get instrs i with
    | Cnop -> ()
    | Cbinop { dst; op; ty; lhs; rhs } ->
        (* rhs first: the tree-walker's right-to-left application order.
           Integer ops on two integers are inlined (the interpreter's
           integer arithmetic is width-blind, so this is exactly
           [exec_binop]'s integer arm); any float operand or float-typed op
           falls back, which also reproduces the type-mismatch traps. *)
        let r = eval_op rt slots f rhs in
        let l = eval_op rt slots f lhs in
        slots.(dst) <-
          (match (l, r) with
          | Interp.VInt a, Interp.VInt b when ty <> Ir.F64 ->
              Interp.VInt
                (match op with
                | Ir.Add -> Int64.add a b
                | Ir.Sub -> Int64.sub a b
                | Ir.Mul -> Int64.mul a b
                | Ir.And -> Int64.logand a b
                | Ir.Or -> Int64.logor a b
                | Ir.Xor -> Int64.logxor a b
                | Ir.Shl -> Int64.shift_left a (Int64.to_int b land 63)
                | Ir.Lshr -> Int64.shift_right_logical a (Int64.to_int b land 63)
                | Ir.Sdiv -> if b = 0L then Interp.trap "division by zero" else Int64.div a b
                | Ir.Srem -> if b = 0L then Interp.trap "division by zero" else Int64.rem a b)
          | _ -> Interp.exec_binop op ty l r)
    | Cicmp { dst; cmp; lhs; rhs } ->
        let r = eval_op rt slots f rhs in
        let l = eval_op rt slots f lhs in
        slots.(dst) <- Interp.exec_icmp cmp l r
    | Calloca { dst; bytes } ->
        slots.(dst) <-
          Interp.VInt
            (Mem.alloc rc.Interp.mem (Int64.to_int (Interp.as_int (eval_op rt slots f bytes))))
    | Cload { dst; kind; ptr } ->
        let p = Interp.as_int (eval_op rt slots f ptr) in
        slots.(dst) <-
          (match kind with
          | Lbyte -> Interp.VInt (Int64.of_int (Mem.load_byte rc.Interp.mem p))
          | Lbit -> Interp.VInt (Int64.of_int (Mem.load_byte rc.Interp.mem p land 1))
          | Lword -> Interp.VInt (Mem.load_i64 rc.Interp.mem p)
          | Lfloat -> Interp.VFloat (Int64.float_of_bits (Mem.load_i64 rc.Interp.mem p))
          | Lvoid -> Interp.trap "load void")
    | Cstore { kind; src; ptr } -> (
        let p = Interp.as_int (eval_op rt slots f ptr) in
        let v = eval_op rt slots f src in
        match kind with
        | Sbyte -> Mem.store_byte rc.Interp.mem p (Int64.to_int (Interp.as_int v) land 0xff)
        | Sword -> Mem.store_i64 rc.Interp.mem p (Interp.as_int v)
        | Sfloat -> Mem.store_i64 rc.Interp.mem p (Int64.bits_of_float (Interp.as_float v))
        | Svoid -> Interp.trap "store void")
    | Cgep { dst; base; offset } ->
        let bp = Interp.as_int (eval_op rt slots f base) in
        let o = Int64.to_int (Interp.as_int (eval_op rt slots f offset)) in
        slots.(dst) <- Interp.VInt (Mem.offset bp o)
    | Cselect { dst; cond; if_true; if_false } ->
        let c = Interp.as_int (eval_op rt slots f cond) in
        slots.(dst) <- eval_op rt slots f (if c <> 0L then if_true else if_false)
    | Ccall { dst; target; args; callee } -> (
        let nargs = Array.length args in
        let rec eval_args i =
          if i = nargs then []
          else
            let v = eval_op rt slots f (Array.unsafe_get args i) in
            v :: eval_args (i + 1)
        in
        let result =
          match target with
          | Tdirect tfi ->
              let tf = Array.unsafe_get rt.prog.funcs tfi in
              if tf.defined && nargs = tf.nparams then begin
                (* Fast path: arguments are evaluated left to right straight
                   into the callee's frame (duplicate param names share a
                   slot, so later arguments win, like the tree-walker's
                   Hashtbl.replace).  Trap order is preserved: argument
                   traps fire during evaluation, before the call count
                   bump; arity and declaration traps take the list-building
                   path below. *)
                let fslots = Array.make tf.nslots unbound in
                for j = 0 to nargs - 1 do
                  fslots.(Array.unsafe_get tf.param_slots j) <-
                    eval_op rt slots f (Array.unsafe_get args j)
                done;
                Interp.bump_call_count st callee;
                if tf.entry_phi then Interp.trap "phi in entry block of @%s" tf.cname;
                exec_block rt tf fslots 0
              end
              else begin
                let argv = eval_args 0 in
                Interp.bump_call_count st callee;
                exec_func rt tfi argv
              end
          | Tnative intr -> Interp.exec_intrinsic rc intr (eval_args 0)
          | Tunresolved ->
              let (_ : Interp.value list) = eval_args 0 in
              Interp.trap "call to unresolved symbol @%s" callee
        in
        if dst >= 0 then
          match result with
          | Some v -> slots.(dst) <- v
          | None -> Interp.trap "void call used as value (@%s)" callee)
  done;
  rt.fuel <- rt.fuel - 1;
  match b.term with
  | Tret_void -> None
  | Tret op -> Some (eval_op rt slots f op)
  | Tbr e -> exec_block rt f slots (take_edge rt f slots e)
  | Tcbr { cond; if_true; if_false } ->
      let c = Interp.as_int (eval_op rt slots f cond) in
      exec_block rt f slots (take_edge rt f slots (if c <> 0L then if_true else if_false))
  | Tunreachable msg -> raise (Interp.Trap msg)

let find_entry prog fname =
  match Hashtbl.find_opt prog.fidx fname with
  | Some i when prog.funcs.(i).defined -> i
  | Some _ -> Interp.trap "@%s is only declared" fname
  | None -> Interp.trap "no function @%s" fname

let run_handler_prog ?(fuel = 20_000_000) ~host prog ~fname ~req =
  try
    with_rt ~fuel ~host prog (fun rt ->
        let fi = find_entry prog fname in
        rt.rc.Interp.req_ptr <- Mem.write_cstr rt.rc.Interp.mem req;
        let (_ : Interp.value option) = exec_func rt fi [] in
        match rt.rc.Interp.response with
        | Some res -> Ok (res, rt.rc.Interp.stats)
        | None -> Error "handler returned without calling quilt_send_res")
  with
  | Interp.Trap msg -> Error msg
  | Mem.Trap msg -> Error ("memory fault: " ^ msg)

let run_local_prog ?(fuel = 20_000_000) ~host prog ~fname ~req =
  try
    with_rt ~fuel ~host prog (fun rt ->
        let fi = find_entry prog fname in
        let reqp = Mem.write_cstr rt.rc.Interp.mem req in
        match exec_func rt fi [ Interp.VInt reqp ] with
        | Some (Interp.VInt resp) -> Ok (Mem.read_cstr rt.rc.Interp.mem resp, rt.rc.Interp.stats)
        | Some (Interp.VFloat _) | None -> Error "local function did not return a pointer")
  with
  | Interp.Trap msg -> Error msg
  | Mem.Trap msg -> Error ("memory fault: " ^ msg)

let run_handler ?fuel ~host m ~fname ~req = run_handler_prog ?fuel ~host (compile m) ~fname ~req
let run_local ?fuel ~host m ~fname ~req = run_local_prog ?fuel ~host (compile m) ~fname ~req

