type ty = I1 | I8 | I32 | I64 | F64 | Ptr | Void

type const = Cint of ty * int64 | Cfloat of float | Cnull | Cglobal of string

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
  | Gep of { dst : string; base : value; offset : value }
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
  blocks : block list;
  linkage : linkage;
  lang : string option;
}

type ginit = Gstr of string | Gzero of int | Gint64 of int64

type global = { gname : string; ginit : ginit; gconst : bool; glang : string option }

type modul = { mname : string; globals : global list; funcs : func list }

let is_declaration f = f.blocks = []

(* Memoized name → definition indexes.  A modul is immutable — every pass
   builds a new record — so a single-slot cache keyed on physical equality
   of the [funcs] / [globals] lists is sound; it turns the repeated
   whole-module name probes of the interpreter, verifier and merge passes
   from O(|funcs|) scans into O(1) lookups.  The slot is domain-local so
   the bench harness's multicore fan-out never races on it. *)
let func_memo : (func list * (string, func) Hashtbl.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let global_memo : (global list * (string, global) Hashtbl.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let memo_table slot key ~name ~items =
  let cell = Domain.DLS.get slot in
  match !cell with
  | Some (k, tbl) when k == key -> tbl
  | _ ->
      let tbl = Hashtbl.create ((2 * List.length items) + 1) in
      (* First occurrence wins, matching List.find_opt. *)
      List.iter (fun x -> if not (Hashtbl.mem tbl (name x)) then Hashtbl.add tbl (name x) x) items;
      cell := Some (key, tbl);
      tbl

let func_index m =
  let tbl = memo_table func_memo m.funcs ~name:(fun f -> f.fname) ~items:m.funcs in
  fun name -> Hashtbl.find_opt tbl name

let global_index m =
  let tbl = memo_table global_memo m.globals ~name:(fun g -> g.gname) ~items:m.globals in
  fun name -> Hashtbl.find_opt tbl name

(* A plain find still short-circuits through the memo when the module's
   index happens to be warm, without paying to build one. *)
let find_func m name =
  match !(Domain.DLS.get func_memo) with
  | Some (k, tbl) when k == m.funcs -> Hashtbl.find_opt tbl name
  | _ -> List.find_opt (fun f -> f.fname = name) m.funcs

let find_global m name =
  match !(Domain.DLS.get global_memo) with
  | Some (k, tbl) when k == m.globals -> Hashtbl.find_opt tbl name
  | _ -> List.find_opt (fun g -> g.gname = name) m.globals

let map_funcs fn m = { m with funcs = List.map fn m.funcs }

let replace_func m f =
  if List.exists (fun f' -> f'.fname = f.fname) m.funcs then
    { m with funcs = List.map (fun f' -> if f'.fname = f.fname then f else f') m.funcs }
  else { m with funcs = m.funcs @ [ f ] }

let add_func m f =
  if List.exists (fun f' -> f'.fname = f.fname) m.funcs then
    invalid_arg (Printf.sprintf "Ir.add_func: duplicate symbol %s" f.fname)
  else { m with funcs = m.funcs @ [ f ] }

let add_global m g =
  if List.exists (fun g' -> g'.gname = g.gname) m.globals then
    invalid_arg (Printf.sprintf "Ir.add_global: duplicate global %s" g.gname)
  else { m with globals = m.globals @ [ g ] }

let map_instrs fn f =
  if is_declaration f then f
  else
    {
      f with
      blocks =
        List.map
          (fun b -> { b with instrs = List.concat_map fn b.instrs })
          f.blocks;
    }

let iter_calls m visit =
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          List.iter
            (fun i -> match i with Call _ -> visit ~caller:f i | _ -> ())
            b.instrs)
        f.blocks)
    m.funcs

let instr_count m =
  List.fold_left
    (fun acc f -> acc + List.fold_left (fun a b -> a + List.length b.instrs + 1) 0 f.blocks)
    0 m.funcs

let string_global m name =
  match find_global m name with
  | Some { ginit = Gstr s; _ } -> Some s
  | Some { ginit = Gzero _ | Gint64 _; _ } | None -> None

let fresh_name ~prefix m =
  let used name =
    List.exists (fun f -> f.fname = name) m.funcs
    || List.exists (fun g -> g.gname = name) m.globals
  in
  if not (used prefix) then prefix
  else begin
    let rec loop i =
      let cand = Printf.sprintf "%s.%d" prefix i in
      if used cand then loop (i + 1) else cand
    in
    loop 1
  end

let langs m =
  let tags = List.filter_map (fun f -> f.lang) m.funcs @ List.filter_map (fun g -> g.glang) m.globals in
  List.sort_uniq compare tags
