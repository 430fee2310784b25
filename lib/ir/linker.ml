exception Link_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

let same_signature (a : Ir.func) (b : Ir.func) =
  List.map snd a.Ir.params = List.map snd b.Ir.params && a.Ir.ret_ty = b.Ir.ret_ty

let merge_funcs ~dedup_identical (a : Ir.func) (b : Ir.func) =
  if not (same_signature a b) then
    fail "conflicting signatures for @%s" a.Ir.fname
  else begin
    match Ir.is_declaration a, Ir.is_declaration b with
    | true, _ -> b (* declaration + anything = the more defined one *)
    | _, true -> a
    | false, false ->
        if dedup_identical && Pp.func_to_string a = Pp.func_to_string b then a
        else fail "duplicate definition of @%s" a.Ir.fname
  end

let merge_globals ~dedup_identical (a : Ir.global) (b : Ir.global) =
  if a.Ir.ginit = b.Ir.ginit && a.Ir.gconst = b.Ir.gconst then a
  else if dedup_identical && a.Ir.gconst && b.Ir.gconst && a.Ir.ginit = b.Ir.ginit then a
  else fail "conflicting definitions of global @%s" a.Ir.gname

let link ?(dedup_identical = false) (a : Ir.modul) (b : Ir.modul) =
  let funcs = ref [] in
  let by_name = Hashtbl.create 64 in
  let add_func (f : Ir.func) =
    match Hashtbl.find_opt by_name f.Ir.fname with
    | None ->
        Hashtbl.replace by_name f.Ir.fname f;
        funcs := f.Ir.fname :: !funcs
    | Some existing -> Hashtbl.replace by_name f.Ir.fname (merge_funcs ~dedup_identical existing f)
  in
  List.iter add_func a.Ir.funcs;
  List.iter add_func b.Ir.funcs;
  let globals = ref [] in
  let g_by_name = Hashtbl.create 64 in
  let add_global (g : Ir.global) =
    match Hashtbl.find_opt g_by_name g.Ir.gname with
    | None ->
        Hashtbl.replace g_by_name g.Ir.gname g;
        globals := g.Ir.gname :: !globals
    | Some existing -> Hashtbl.replace g_by_name g.Ir.gname (merge_globals ~dedup_identical existing g)
  in
  List.iter add_global a.Ir.globals;
  List.iter add_global b.Ir.globals;
  {
    Ir.mname = a.Ir.mname;
    globals = List.rev_map (fun n -> Hashtbl.find g_by_name n) !globals;
    funcs = List.rev_map (fun n -> Hashtbl.find by_name n) !funcs;
  }
