let referenced_symbols (f : Ir.func) =
  let out = ref [] in
  let value v =
    match v with
    | Ir.Const (Ir.Cglobal g) -> out := g :: !out
    | Ir.Const (Ir.Cint _ | Ir.Cfloat _ | Ir.Cnull) | Ir.Local _ -> ()
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i with
          | Ir.Binop { lhs; rhs; _ } | Ir.Icmp { lhs; rhs; _ } ->
              value lhs;
              value rhs
          | Ir.Call { callee; args; _ } ->
              out := callee :: !out;
              List.iter (fun (_, v) -> value v) args
          | Ir.Alloca { bytes; _ } -> value bytes
          | Ir.Load { ptr; _ } -> value ptr
          | Ir.Store { src; ptr; _ } ->
              value src;
              value ptr
          | Ir.Gep { base; offset; _ } ->
              value base;
              value offset
          | Ir.Phi { incoming; _ } -> List.iter (fun (v, _) -> value v) incoming
          | Ir.Select { cond; if_true; if_false; _ } ->
              value cond;
              value if_true;
              value if_false)
        b.Ir.instrs;
      match b.Ir.term with
      | Ir.Ret (Some (_, v)) -> value v
      | Ir.Cbr { cond; _ } -> value cond
      | Ir.Ret None | Ir.Br _ | Ir.Unreachable -> ())
    f.Ir.blocks;
  !out

let live_set ~roots (m : Ir.modul) =
  (* One queue pop per live symbol, one index probe each: the memoized
     index keeps the worklist linear in module size. *)
  let fidx = Ir.func_index m in
  let live = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      if not (Hashtbl.mem live r) then begin
        Hashtbl.replace live r ();
        Queue.add r queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let name = Queue.pop queue in
    match fidx name with
    | Some f ->
        List.iter
          (fun s ->
            if not (Hashtbl.mem live s) then begin
              Hashtbl.replace live s ();
              Queue.add s queue
            end)
          (referenced_symbols f)
    | None -> ()
  done;
  live

let run ~roots (m : Ir.modul) =
  let live = live_set ~roots m in
  let keep_f (f : Ir.func) = Hashtbl.mem live f.Ir.fname in
  let keep_g (g : Ir.global) = Hashtbl.mem live g.Ir.gname in
  if List.for_all keep_f m.Ir.funcs && List.for_all keep_g m.Ir.globals then m
  else { m with Ir.funcs = List.filter keep_f m.Ir.funcs; globals = List.filter keep_g m.Ir.globals }

let unused_symbols ~roots (m : Ir.modul) =
  let live = live_set ~roots m in
  List.filter_map
    (fun name -> if Hashtbl.mem live name then None else Some name)
    (List.map (fun (f : Ir.func) -> f.Ir.fname) m.Ir.funcs
    @ List.map (fun (g : Ir.global) -> g.Ir.gname) m.Ir.globals)
