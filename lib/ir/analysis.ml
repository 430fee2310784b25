module SS = Set.Make (String)

(* --- Control-flow graph --- *)

type cfg = {
  func : Ir.func;
  blocks : Ir.block array;
  succs : int list array;
  preds : int list array;
  reachable : bool array;
  index : (string, int) Hashtbl.t;
}

let term_succ_labels = function
  | Ir.Ret _ | Ir.Unreachable -> []
  | Ir.Br l -> [ l ]
  | Ir.Cbr { if_true; if_false; _ } ->
      if if_true = if_false then [ if_true ] else [ if_true; if_false ]

let cfg_of_func (f : Ir.func) =
  let blocks = Array.of_list f.Ir.blocks in
  let n = Array.length blocks in
  let index = Hashtbl.create ((2 * n) + 1) in
  (* First occurrence wins, matching the interpreter's block_of. *)
  Array.iteri
    (fun i (b : Ir.block) -> if not (Hashtbl.mem index b.Ir.label) then Hashtbl.add index b.Ir.label i)
    blocks;
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  Array.iteri
    (fun i (b : Ir.block) ->
      let ss =
        List.filter_map (fun l -> Hashtbl.find_opt index l) (term_succ_labels b.Ir.term)
      in
      succs.(i) <- ss;
      List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss)
    blocks;
  Array.iteri (fun i _ -> preds.(i) <- List.rev preds.(i)) blocks;
  let reachable = Array.make n false in
  if n > 0 then begin
    let stack = Stack.create () in
    reachable.(0) <- true;
    Stack.push 0 stack;
    while not (Stack.is_empty stack) do
      let b = Stack.pop stack in
      List.iter
        (fun s ->
          if not reachable.(s) then begin
            reachable.(s) <- true;
            Stack.push s stack
          end)
        succs.(b)
    done
  end;
  { func = f; blocks; succs; preds; reachable; index }

(* --- Dominators: Cooper–Harvey–Kennedy over reverse postorder --- *)

let dominators cfg =
  let n = Array.length cfg.blocks in
  let idom = Array.make n (-1) in
  if n = 0 then idom
  else begin
    let visited = Array.make n false in
    let post = ref [] in
    (* Explicit stack with a phase marker so deep CFGs cannot overflow. *)
    let stack = Stack.create () in
    Stack.push (`Enter 0) stack;
    while not (Stack.is_empty stack) do
      match Stack.pop stack with
      | `Enter b ->
          if not visited.(b) then begin
            visited.(b) <- true;
            Stack.push (`Exit b) stack;
            List.iter (fun s -> if not visited.(s) then Stack.push (`Enter s) stack) cfg.succs.(b)
          end
      | `Exit b -> post := b :: !post
    done;
    let rpo = Array.of_list !post in
    let rpo_num = Array.make n max_int in
    Array.iteri (fun i b -> rpo_num.(b) <- i) rpo;
    idom.(0) <- 0;
    let rec intersect a b =
      if a = b then a
      else if rpo_num.(a) > rpo_num.(b) then intersect idom.(a) b
      else intersect a idom.(b)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun b ->
          if b <> 0 then begin
            let new_idom =
              List.fold_left
                (fun acc p ->
                  if (not cfg.reachable.(p)) || idom.(p) = -1 then acc
                  else match acc with None -> Some p | Some a -> Some (intersect a p))
                None cfg.preds.(b)
            in
            match new_idom with
            | Some ni when idom.(b) <> ni ->
                idom.(b) <- ni;
                changed := true
            | Some _ | None -> ()
          end)
        rpo
    done;
    idom
  end

let dominates ~idom a b =
  if b >= Array.length idom || idom.(b) < 0 then false
  else begin
    let rec up b = if a = b then true else if b = 0 then false else up idom.(b) in
    up b
  end

(* --- Definitions and uses --- *)

let instr_dst (i : Ir.instr) =
  match i with
  | Ir.Binop { dst; _ }
  | Ir.Icmp { dst; _ }
  | Ir.Alloca { dst; _ }
  | Ir.Load { dst; _ }
  | Ir.Gep { dst; _ }
  | Ir.Phi { dst; _ }
  | Ir.Select { dst; _ } ->
      Some dst
  | Ir.Call { dst; _ } -> dst
  | Ir.Store _ -> None

let instr_dst_ty (i : Ir.instr) =
  match i with
  | Ir.Binop { dst; ty; _ } | Ir.Load { dst; ty; _ } | Ir.Phi { dst; ty; _ } | Ir.Select { dst; ty; _ }
    ->
      Some (dst, ty)
  | Ir.Icmp { dst; _ } -> Some (dst, Ir.I1)
  | Ir.Alloca { dst; _ } | Ir.Gep { dst; _ } -> Some (dst, Ir.Ptr)
  | Ir.Call { dst = Some d; ret; _ } -> Some (d, ret)
  | Ir.Call { dst = None; _ } | Ir.Store _ -> None

let rec iter_fst fn = function [] -> () | (v, _) :: tl -> fn v; iter_fst fn tl
let rec iter_snd fn = function [] -> () | (_, v) :: tl -> fn v; iter_snd fn tl

let iter_operands fn (i : Ir.instr) =
  match i with
  | Ir.Binop { lhs; rhs; _ } | Ir.Icmp { lhs; rhs; _ } | Ir.Gep { base = lhs; offset = rhs; _ } ->
      fn lhs;
      fn rhs
  | Ir.Store { src; ptr; _ } ->
      fn src;
      fn ptr
  | Ir.Call { args; _ } -> iter_snd fn args
  | Ir.Alloca { bytes = v; _ } | Ir.Load { ptr = v; _ } -> fn v
  | Ir.Phi { incoming; _ } -> iter_fst fn incoming
  | Ir.Select { cond; if_true; if_false; _ } ->
      fn cond;
      fn if_true;
      fn if_false

let term_operands (t : Ir.terminator) =
  match t with
  | Ir.Ret (Some (_, v)) -> [ v ]
  | Ir.Cbr { cond; _ } -> [ cond ]
  | Ir.Ret None | Ir.Br _ | Ir.Unreachable -> []

(* --- Type inference --- *)

let local_types (f : Ir.func) =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (p, ty) -> Hashtbl.replace tbl p ty) f.Ir.params;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          match instr_dst_ty i with
          | Some (d, ty) -> if not (Hashtbl.mem tbl d) then Hashtbl.add tbl d ty
          | None -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  tbl

(* --- Backward liveness --- *)

type liveness = { live_in : SS.t array; live_out : SS.t array }

let liveness cfg =
  let n = Array.length cfg.blocks in
  (* gen: upward-exposed non-phi uses; kill: every destination (phi
     destinations bind at the top of the block, so they kill throughout).
     Phi sources are uses at the end of the matching predecessor. *)
  let gen = Array.make n SS.empty in
  let kill = Array.make n SS.empty in
  let phi_edge_uses = Array.make n [] in
  (* per block: (pred_label, locals) list *)
  Array.iteri
    (fun bi (b : Ir.block) ->
      let defined = ref SS.empty in
      let use v =
        match v with
        | Ir.Local l when not (SS.mem l !defined) -> gen.(bi) <- SS.add l gen.(bi)
        | Ir.Local _ | Ir.Const _ -> ()
      in
      List.iter
        (fun i ->
          match i with
          | Ir.Phi { dst; incoming; _ } ->
              defined := SS.add dst !defined;
              List.iter
                (fun (v, l) ->
                  match v with
                  | Ir.Local x -> phi_edge_uses.(bi) <- (l, x) :: phi_edge_uses.(bi)
                  | Ir.Const _ -> ())
                incoming
          | _ -> ())
        b.Ir.instrs;
      List.iter
        (fun i ->
          match i with
          | Ir.Phi _ -> ()
          | _ ->
              iter_operands use i;
              (match instr_dst i with Some d -> defined := SS.add d !defined | None -> ()))
        b.Ir.instrs;
      List.iter use (term_operands b.Ir.term);
      kill.(bi) <- !defined)
    cfg.blocks;
  let live_in = Array.make n SS.empty in
  let live_out = Array.make n SS.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for bi = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc s ->
            let from_phis =
              List.fold_left
                (fun acc (l, x) ->
                  if l = cfg.blocks.(bi).Ir.label then SS.add x acc else acc)
                SS.empty phi_edge_uses.(s)
            in
            SS.union acc (SS.union live_in.(s) from_phis))
          SS.empty cfg.succs.(bi)
      in
      let inn = SS.union gen.(bi) (SS.diff out kill.(bi)) in
      if not (SS.equal out live_out.(bi) && SS.equal inn live_in.(bi)) then begin
        live_out.(bi) <- out;
        live_in.(bi) <- inn;
        changed := true
      end
    done
  done;
  { live_in; live_out }

(* --- Slot analysis --- *)

let write_only_slots (f : Ir.func) =
  let slots = ref SS.empty in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i -> match i with Ir.Alloca { dst; _ } -> slots := SS.add dst !slots | _ -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  let disqualify v = match v with Ir.Local l -> slots := SS.remove l !slots | Ir.Const _ -> () in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          match i with
          | Ir.Store { src; ptr = _; _ } ->
              (* The pointer position is the one permitted use. *)
              disqualify src
          | Ir.Alloca _ -> ()
          | _ -> iter_operands disqualify i)
        b.Ir.instrs;
      List.iter disqualify (term_operands b.Ir.term))
    f.Ir.blocks;
  !slots
