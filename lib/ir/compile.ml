(* Lowering from Ir.modul to the flat, pre-resolved program the Vm executes.

   Everything the tree-walker resolves per step is resolved here once:
   - locals become integer slots into a per-activation [value array];
   - block labels become indices into a [cblock array];
   - callees are resolved to a function index, an interned intrinsic, or a
     compile-time [Tunresolved] marker;
   - constants are pre-boxed [Interp.value]s;
   - phis become per-edge parallel move lists (the per-position [Cnop]
     keeps the fuel/step accounting identical to the tree-walker, which
     charges phi instructions at their positions);
   - every trap message that depends only on static structure (missing
     label, missing phi incoming, unreachable, unresolved symbol) is
     preformatted, so the hot path never builds strings.

   The contract is exact observational equivalence with Interp: same
   responses, same trap messages, same stats.  Comments below flag each
   place where an evaluation-order quirk of the tree-walker is load-bearing. *)

type operand =
  | Oslot of int
  | Oconst of Interp.value  (* pre-boxed; never physically the Vm sentinel *)
  | Oglobal of int  (* index into prog.globals (last occurrence of the name) *)
  | Omissing_global of string  (* Cglobal naming no module global: traps on use *)

type lkind = Lbyte | Lbit | Lword | Lfloat | Lvoid
type skind = Sbyte | Sword | Sfloat | Svoid

type ctarget =
  | Tdirect of int  (* prog.funcs index of a defined function *)
  | Tnative of Interp.intrinsic
  | Tunresolved  (* traps after evaluating args, like the tree-walker *)

type cinstr =
  | Cnop  (* a phi position: charged for fuel/steps, otherwise inert *)
  | Cbinop of { dst : int; op : Ir.binop; ty : Ir.ty; lhs : operand; rhs : operand }
  | Cicmp of { dst : int; cmp : Ir.cmp; lhs : operand; rhs : operand }
  | Calloca of { dst : int; bytes : operand }
  | Cload of { dst : int; kind : lkind; ptr : operand }
  | Cstore of { kind : skind; src : operand; ptr : operand }
  | Cgep of { dst : int; base : operand; offset : operand }
  | Cselect of { dst : int; cond : operand; if_true : operand; if_false : operand }
  | Ccall of { dst : int; (* -1 when the result is discarded *)
               target : ctarget;
               args : operand array;
               callee : string (* for stats.calls and trap messages *) }

type cmove =
  | Mv of int * operand
  | Mtrap of string  (* "phi in %%b has no incoming for %%pred", preformatted *)

type cedge =
  | Eok of { blk : int; moves : cmove array }
  | Emissing of string  (* "branch to missing label ...", preformatted *)

type cterm =
  | Tret_void
  | Tret of operand
  | Tbr of cedge
  | Tcbr of { cond : operand; if_true : cedge; if_false : cedge }
  | Tunreachable of string  (* preformatted *)

type cblock = { instrs : cinstr array; term : cterm }

type cfunc = {
  cname : string;
  nparams : int;
  param_slots : int array;
  nslots : int;
  slot_names : string array;  (* slot -> source local name, for trap messages *)
  entry_phi : bool;  (* entry block contains a phi: trap on activation *)
  defined : bool;
  blocks : cblock array;
}

type prog = {
  source : Ir.modul;
  funcs : cfunc array;  (* one per m.funcs entry, same order *)
  fidx : (string, int) Hashtbl.t;  (* name -> first occurrence, like find_func *)
  globals : Ir.global array;  (* module order: materialization must allocate
                                 every occurrence, in order, for pointer-value
                                 parity with the tree-walker *)
  gtemplate : (Abi.Mem.snapshot * Interp.value array) Lazy.t;
      (* heap image + boxed addresses of the materialized globals; lazy so a
         trapping initializer traps on activation, like the tree-walker *)
  gtemplate_lock : Mutex.t;  (* serializes forcing [gtemplate] across domains *)
  spare : Abi.Mem.t option Atomic.t;
      (* a heap kept between runs, restored from [gtemplate] by each one *)
}

(* Forcing a [Lazy.t] that another domain is forcing raises
   [CamlinternalLazy.Undefined] (and [Lazy.is_val] already holds while it is
   being forced, so it cannot guard the force), hence the lock. *)
let template p = Mutex.protect p.gtemplate_lock (fun () -> Lazy.force p.gtemplate)

let is_phi (i : Ir.instr) = match i with Ir.Phi _ -> true | _ -> false

let lower_func (m : Ir.modul) gidx fidx (f : Ir.func) : cfunc =
  let nparams = List.length f.Ir.params in
  if Ir.is_declaration f then
    {
      cname = f.Ir.fname;
      nparams;
      param_slots = [||];
      nslots = 0;
      slot_names = [||];
      entry_phi = false;
      defined = false;
      blocks = [||];
    }
  else begin
    (* Slot assignment: first mention (params, then dsts and operands in
       program order) gets the next slot.  Duplicate param names share a
       slot, so binding arguments in order preserves the tree-walker's
       Hashtbl.replace last-wins semantics. *)
    let slot_tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let names = ref [] in
    let nslots = ref 0 in
    let slot_of l =
      match Hashtbl.find_opt slot_tbl l with
      | Some i -> i
      | None ->
          let i = !nslots in
          incr nslots;
          Hashtbl.add slot_tbl l i;
          names := l :: !names;
          i
    in
    let param_slots = Array.of_list (List.map (fun (p, _) -> slot_of p) f.Ir.params) in
    let visit_value = function Ir.Local l -> ignore (slot_of l) | Ir.Const _ -> () in
    let visit_instr (i : Ir.instr) =
      match i with
      | Ir.Binop { dst; lhs; rhs; _ } | Ir.Icmp { dst; lhs; rhs; _ } ->
          visit_value lhs;
          visit_value rhs;
          ignore (slot_of dst)
      | Ir.Call { dst; args; _ } ->
          List.iter (fun (_, v) -> visit_value v) args;
          Option.iter (fun d -> ignore (slot_of d)) dst
      | Ir.Alloca { dst; bytes } ->
          visit_value bytes;
          ignore (slot_of dst)
      | Ir.Load { dst; ptr; _ } ->
          visit_value ptr;
          ignore (slot_of dst)
      | Ir.Store { src; ptr; _ } ->
          visit_value src;
          visit_value ptr
      | Ir.Gep { dst; base; offset } ->
          visit_value base;
          visit_value offset;
          ignore (slot_of dst)
      | Ir.Phi { dst; incoming; _ } ->
          List.iter (fun (v, _) -> visit_value v) incoming;
          ignore (slot_of dst)
      | Ir.Select { dst; cond; if_true; if_false; _ } ->
          visit_value cond;
          visit_value if_true;
          visit_value if_false;
          ignore (slot_of dst)
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter visit_instr b.Ir.instrs;
        match b.Ir.term with
        | Ir.Ret (Some (_, v)) -> visit_value v
        | Ir.Cbr { cond; _ } -> visit_value cond
        | Ir.Ret None | Ir.Br _ | Ir.Unreachable -> ())
      f.Ir.blocks;
    let lower_value v =
      match v with
      | Ir.Local l -> Oslot (Hashtbl.find slot_tbl l)
      | Ir.Const (Ir.Cint (_, v)) -> Oconst (Interp.VInt v)
      | Ir.Const (Ir.Cfloat x) -> Oconst (Interp.VFloat x)
      | Ir.Const Ir.Cnull -> Oconst (Interp.VInt 0L)
      | Ir.Const (Ir.Cglobal g) -> (
          match gidx g with Some i -> Oglobal i | None -> Omissing_global g)
    in
    (* Labels resolve to the first block with that name, like find_opt. *)
    let blocks_arr = Array.of_list f.Ir.blocks in
    let label_idx : (string, int) Hashtbl.t = Hashtbl.create 16 in
    Array.iteri
      (fun i (b : Ir.block) ->
        if not (Hashtbl.mem label_idx b.Ir.label) then Hashtbl.add label_idx b.Ir.label i)
      blocks_arr;
    let edge ~pred_label target =
      match Hashtbl.find_opt label_idx target with
      | None ->
          Emissing (Printf.sprintf "branch to missing label %%%s in @%s" target f.Ir.fname)
      | Some bi ->
          let tb = blocks_arr.(bi) in
          let moves =
            List.filter_map
              (fun (i : Ir.instr) ->
                match i with
                | Ir.Phi { dst; incoming; _ } -> (
                    (* First matching incoming wins, like assoc_opt. *)
                    match
                      List.assoc_opt pred_label (List.map (fun (v, l) -> (l, v)) incoming)
                    with
                    | Some v -> Some (Mv (Hashtbl.find slot_tbl dst, lower_value v))
                    | None ->
                        Some
                          (Mtrap
                             (Printf.sprintf "phi in %%%s has no incoming for %%%s"
                                tb.Ir.label pred_label)))
                | _ -> None)
              tb.Ir.instrs
          in
          Eok { blk = bi; moves = Array.of_list moves }
    in
    let lkind_of = function
      | Ir.I8 -> Lbyte
      | Ir.I1 -> Lbit
      | Ir.I32 | Ir.I64 | Ir.Ptr -> Lword
      | Ir.F64 -> Lfloat
      | Ir.Void -> Lvoid
    in
    let skind_of = function
      | Ir.I8 | Ir.I1 -> Sbyte
      | Ir.I32 | Ir.I64 | Ir.Ptr -> Sword
      | Ir.F64 -> Sfloat
      | Ir.Void -> Svoid
    in
    let lower_instr (i : Ir.instr) =
      match i with
      | Ir.Phi _ -> Cnop
      | Ir.Binop { dst; op; ty; lhs; rhs } ->
          Cbinop { dst = slot_of dst; op; ty; lhs = lower_value lhs; rhs = lower_value rhs }
      | Ir.Icmp { dst; cmp; lhs; rhs; _ } ->
          Cicmp { dst = slot_of dst; cmp; lhs = lower_value lhs; rhs = lower_value rhs }
      | Ir.Alloca { dst; bytes } -> Calloca { dst = slot_of dst; bytes = lower_value bytes }
      | Ir.Load { dst; ty; ptr } ->
          Cload { dst = slot_of dst; kind = lkind_of ty; ptr = lower_value ptr }
      | Ir.Store { ty; src; ptr } ->
          Cstore { kind = skind_of ty; src = lower_value src; ptr = lower_value ptr }
      | Ir.Gep { dst; base; offset } ->
          Cgep { dst = slot_of dst; base = lower_value base; offset = lower_value offset }
      | Ir.Select { dst; cond; if_true; if_false; _ } ->
          Cselect
            {
              dst = slot_of dst;
              cond = lower_value cond;
              if_true = lower_value if_true;
              if_false = lower_value if_false;
            }
      | Ir.Call { dst; callee; args; _ } ->
          let target =
            match Ir.func_index m callee with
            | Some tf when not (Ir.is_declaration tf) -> Tdirect (Hashtbl.find fidx callee)
            | Some _ | None ->
                if Intrinsics.mem callee then Tnative (Interp.intern_intrinsic callee)
                else Tunresolved
          in
          Ccall
            {
              dst = (match dst with Some d -> slot_of d | None -> -1);
              target;
              args = Array.of_list (List.map (fun (_, v) -> lower_value v) args);
              callee;
            }
    in
    let lower_block (b : Ir.block) =
      let pred_label = b.Ir.label in
      let term =
        match b.Ir.term with
        | Ir.Ret None -> Tret_void
        | Ir.Ret (Some (_, v)) -> Tret (lower_value v)
        | Ir.Br l -> Tbr (edge ~pred_label l)
        | Ir.Cbr { cond; if_true; if_false } ->
            Tcbr
              {
                cond = lower_value cond;
                if_true = edge ~pred_label if_true;
                if_false = edge ~pred_label if_false;
              }
        | Ir.Unreachable ->
            Tunreachable (Printf.sprintf "reached unreachable in @%s" f.Ir.fname)
      in
      { instrs = Array.of_list (List.map lower_instr b.Ir.instrs); term }
    in
    let blocks = Array.map lower_block blocks_arr in
    let entry_phi =
      match f.Ir.blocks with [] -> false | b :: _ -> List.exists is_phi b.Ir.instrs
    in
    {
      cname = f.Ir.fname;
      nparams;
      param_slots;
      nslots = !nslots;
      slot_names = Array.of_list (List.rev !names);
      entry_phi;
      defined = true;
      blocks;
    }
  end

let compile (m : Ir.modul) : prog =
  let fidx = Hashtbl.create (2 * List.length m.Ir.funcs) in
  List.iteri
    (fun i (f : Ir.func) -> if not (Hashtbl.mem fidx f.Ir.fname) then Hashtbl.add fidx f.Ir.fname i)
    m.Ir.funcs;
  (* Cglobal references resolve to the last occurrence of the name, matching
     the tree-walker's Hashtbl.replace during materialization. *)
  let gidx_tbl = Hashtbl.create (2 * List.length m.Ir.globals + 1) in
  List.iteri (fun i (g : Ir.global) -> Hashtbl.replace gidx_tbl g.Ir.gname i) m.Ir.globals;
  let gidx name = Hashtbl.find_opt gidx_tbl name in
  let funcs = Array.of_list (List.map (lower_func m gidx fidx) m.Ir.funcs) in
  let globals = Array.of_list m.Ir.globals in
  (* Every occurrence is materialized, in module order: allocation order --
     hence every pointer value the program observes -- matches the
     tree-walker exactly. *)
  let gtemplate =
    lazy
      (let mem = Abi.Mem.create () in
       let gvals =
         Array.map
           (fun (g : Ir.global) ->
             let ptr =
               match g.Ir.ginit with
               | Ir.Gstr s -> Abi.Mem.write_cstr mem s
               | Ir.Gzero n -> Abi.Mem.alloc mem n
               | Ir.Gint64 v ->
                   let p = Abi.Mem.alloc mem 8 in
                   Abi.Mem.store_i64 mem p v;
                   p
             in
             Interp.VInt ptr)
           globals
       in
       (Abi.Mem.snapshot mem, gvals))
  in
  {
    source = m;
    funcs;
    fidx;
    globals;
    gtemplate;
    gtemplate_lock = Mutex.create ();
    spare = Atomic.make None;
  }
