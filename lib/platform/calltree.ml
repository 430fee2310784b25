module Ast = Quilt_lang.Ast
module Eval = Quilt_lang.Eval
module Trace = Quilt_tracing.Trace

type node = {
  fn : string;
  req : string;
  res : string;
  phases : phase list;
  own_cpu_us : float;
  own_mem_mb : float;
}

and phase =
  | Compute of float
  | Io of float
  | Mem of float
  | Call of { kind : Trace.call_kind; future : int option; child : node }
  | Join of int

type registry = string -> Ast.fn

let rec build (registry : registry) ~entry ~req =
  (* The invoke callback runs before Eval emits the corresponding phase, so
     children arrive in phase order: one queue per call kind suffices. *)
  let sync_children = Queue.create () in
  let async_children = Queue.create () in
  let invoke ~kind ~name ~req =
    let child = build registry ~entry:name ~req in
    (match kind with
    | `Sync -> Queue.add child sync_children
    | `Async -> Queue.add child async_children);
    child.res
  in
  let fn = registry entry in
  let res, trace = Eval.run ~invoke fn ~req in
  let phases =
    List.map
      (fun (p : Eval.phase) ->
        match p with
        | Eval.Compute us -> Compute us
        | Eval.Io us -> Io us
        | Eval.Mem mb -> Mem mb
        | Eval.Sync_call _ ->
            Call { kind = Trace.Sync; future = None; child = Queue.pop sync_children }
        | Eval.Async_spawn { future; _ } ->
            Call { kind = Trace.Async; future = Some future; child = Queue.pop async_children }
        | Eval.Async_join id -> Join id)
      trace
  in
  (* The engine's per-member billing monitor charges a node's own demand on
     every completion; summing it once here keeps that path out of the
     phase list. *)
  let own_cpu_us, own_mem_mb =
    List.fold_left
      (fun (cpu, mem) p ->
        match p with
        | Compute us -> (cpu +. us, mem)
        | Mem mb -> (cpu, mem +. mb)
        | Io _ | Call _ | Join _ -> (cpu, mem))
      (0.0, 0.0) phases
  in
  { fn = entry; req; res; phases; own_cpu_us; own_mem_mb }

let response n = n.res

let rec total_cpu_us n =
  List.fold_left
    (fun acc p ->
      match p with
      | Compute us -> acc +. us
      | Call { child; _ } -> acc +. total_cpu_us child
      | Io _ | Mem _ | Join _ -> acc)
    0.0 n.phases

let functions n =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit n =
    if not (Hashtbl.mem seen n.fn) then begin
      Hashtbl.add seen n.fn ();
      order := n.fn :: !order
    end;
    List.iter (fun p -> match p with Call { child; _ } -> visit child | _ -> ()) n.phases
  in
  visit n;
  List.rev !order
