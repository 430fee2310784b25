(** Lowering QIR to the flat bytecode-like program {!Vm} executes.

    [compile] is a one-shot pass over a module that pre-resolves everything
    a tree-walking interpreter would re-resolve on every step: locals become
    integer slots into a per-activation value array, block labels become
    array indices, callees become a function index / interned intrinsic /
    static-unresolved marker, constants are pre-boxed, phis become per-edge
    parallel move lists, and every statically determined trap message is
    preformatted.

    The representation is deliberately transparent (all types concrete):
    {!Vm} is the only intended consumer, and the differential harness in
    [test_fuzz.ml] holds it to exact observational equivalence with the
    tree-walking oracle in [test/treewalk.ml] — same responses, same trap
    messages, same stats. *)

type operand =
  | Oslot of int
  | Oconst of Interp.value
  | Oglobal of int  (** Index into {!field:prog.globals} (last occurrence). *)
  | Omissing_global of string  (** Traps "reference to unmaterialized global". *)

type lkind = Lbyte | Lbit | Lword | Lfloat | Lvoid
type skind = Sbyte | Sword | Sfloat | Svoid

type ctarget =
  | Tdirect of int  (** Index into {!field:prog.funcs}; always defined. *)
  | Tnative of Interp.intrinsic
  | Tunresolved  (** Traps after evaluating the arguments. *)

type cinstr =
  | Cnop  (** A phi position: charged for fuel/steps like the tree-walker. *)
  | Cbinop of { dst : int; op : Ir.binop; ty : Ir.ty; lhs : operand; rhs : operand }
  | Cicmp of { dst : int; cmp : Ir.cmp; lhs : operand; rhs : operand }
  | Calloca of { dst : int; bytes : operand }
  | Cload of { dst : int; kind : lkind; ptr : operand }
  | Cstore of { kind : skind; src : operand; ptr : operand }
  | Cgep of { dst : int; base : operand; offset : operand }
  | Cselect of { dst : int; cond : operand; if_true : operand; if_false : operand }
  | Ccall of { dst : int; target : ctarget; args : operand array; callee : string }
      (** [dst = -1] when the result is discarded. *)

type cmove = Mv of int * operand | Mtrap of string

type cedge =
  | Eok of { blk : int; moves : cmove array }
      (** Parallel phi moves: all sources evaluated, then all slots written. *)
  | Emissing of string  (** Preformatted missing-label trap. *)

type cterm =
  | Tret_void
  | Tret of operand
  | Tbr of cedge
  | Tcbr of { cond : operand; if_true : cedge; if_false : cedge }
  | Tunreachable of string

type cblock = { instrs : cinstr array; term : cterm }

type cfunc = {
  cname : string;
  nparams : int;
  param_slots : int array;
  nslots : int;
  slot_names : string array;  (** For "use of unbound local" messages. *)
  entry_phi : bool;
  defined : bool;
  blocks : cblock array;
}

type prog = {
  source : Ir.modul;
  funcs : cfunc array;  (** One per [m.funcs] entry, in order. *)
  fidx : (string, int) Hashtbl.t;  (** Name → first occurrence. *)
  globals : Ir.global array;
      (** Module order, duplicates included: materializing each occurrence in
          order keeps allocation order — hence concrete pointer values — equal
          to the tree-walker's. *)
  gtemplate : (Abi.Mem.snapshot * Interp.value array) Lazy.t;
      (** Heap image with all globals materialized, plus the boxed address of
          each [globals] entry.  Built on first activation (lazily, so a
          trapping initializer still traps inside the engine's handler, like
          the tree-walker); each request then starts from an
          {!Abi.Mem.restore} instead of replaying every initializer.  Force
          it through {!template}. *)
  gtemplate_lock : Mutex.t;  (** Held while {!template} forces [gtemplate]. *)
  spare : Abi.Mem.t option Atomic.t;
      (** The program's spare heap: a heap a finished run left behind, which
          the next run takes (one [Atomic.exchange]), restores [gtemplate]
          into and hands back when it ends, trap or not.  A run that finds
          none — the first, or one nested in or concurrent with another run
          of the same program — starts from an empty heap.  One spare is
          kept, grown to at most twice what the largest request it served
          needed. *)
}

val template : prog -> Abi.Mem.snapshot * Interp.value array
(** Forces [gtemplate], domain-safely: concurrent first activations from
    several domains build it once, and a trapping initializer traps in
    every activation. *)

val compile : Ir.modul -> prog
