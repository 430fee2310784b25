(** QIR: the LLVM-flavoured intermediate representation Quilt merges at.

    QIR is a small typed IR with modules, globals, functions made of basic
    blocks, and the instruction set the merge pipeline actually rewrites:
    calls, integer arithmetic and comparisons, memory operations, branches
    and phis.  Values are [i64] integers, [f64] floats, or byte pointers;
    strings live in memory as in a real binary, so the per-language string
    ABIs (and the shims that bridge them) are observable.

    Functions carry an optional source-language tag which the passes use to
    pick string ABIs, generate Appendix-D shims, and deduplicate runtime
    libraries. *)

type ty = I1 | I8 | I32 | I64 | F64 | Ptr | Void

type const =
  | Cint of ty * int64
  | Cfloat of float
  | Cnull
  | Cglobal of string  (** Address of a global, e.g. a string constant. *)

type value = Const of const | Local of string

type binop = Add | Sub | Mul | Sdiv | Srem | And | Or | Xor | Shl | Lshr

type cmp = Ceq | Cne | Cslt | Csle | Csgt | Csge

type instr =
  | Binop of { dst : string; op : binop; ty : ty; lhs : value; rhs : value }
  | Icmp of { dst : string; cmp : cmp; ty : ty; lhs : value; rhs : value }
  | Call of { dst : string option; ret : ty; callee : string; args : (ty * value) list }
  | Alloca of { dst : string; bytes : value }
  | Load of { dst : string; ty : ty; ptr : value }
  | Store of { ty : ty; src : value; ptr : value }
  | Gep of { dst : string; base : value; offset : value }  (** Byte offset. *)
  | Phi of { dst : string; ty : ty; incoming : (value * string) list }
  | Select of { dst : string; ty : ty; cond : value; if_true : value; if_false : value }

type terminator =
  | Ret of (ty * value) option
  | Br of string
  | Cbr of { cond : value; if_true : string; if_false : string }
  | Unreachable

type block = { label : string; instrs : instr list; term : terminator }

type linkage = External | Internal

type func = {
  fname : string;
  params : (string * ty) list;
  ret_ty : ty;
  blocks : block list;  (** Empty for declarations. *)
  linkage : linkage;
  lang : string option;  (** Source-language tag ("rust", "c", ...). *)
}

type ginit =
  | Gstr of string  (** NUL-terminated string data. *)
  | Gzero of int  (** [n] zero bytes. *)
  | Gint64 of int64

type global = {
  gname : string;
  ginit : ginit;
  gconst : bool;
  glang : string option;
}

type modul = {
  mname : string;
  globals : global list;
  funcs : func list;
}

val is_declaration : func -> bool

val find_func : modul -> string -> func option
val find_global : modul -> string -> global option

val func_index : modul -> string -> func option
(** Like {!find_func} but O(1) per probe: builds (and memoizes, per domain,
    keyed on the module's physical identity) a hashtable over [m.funcs].
    Use it whenever many names are resolved against the same module — the
    interpreter's call dispatch, the verifier, and the merge passes do. *)

val global_index : modul -> string -> global option
(** O(1) counterpart of {!find_global}; same memoization. *)

val map_funcs : (func -> func) -> modul -> modul
val replace_func : modul -> func -> modul
(** Replaces the function with the same name; adds it if absent. *)

val add_func : modul -> func -> modul
val add_global : modul -> global -> modul

val map_instrs : (instr -> instr list) -> func -> func
(** Rewrites every instruction of a definition; one instruction may expand
    to several. *)

val iter_calls : modul -> (caller:func -> instr -> unit) -> unit
(** Visits every [Call] instruction in every definition. *)

val instr_count : modul -> int
(** Total instructions across definitions (size metric input). *)

val string_global : modul -> string -> string option
(** [string_global m g] is the string contents of global [g] when it is a
    [Gstr]. *)

val fresh_name : prefix:string -> modul -> string
(** A symbol name not used by any function or global of [m]. *)

val langs : modul -> string list
(** Distinct source-language tags present, sorted. *)
