(* Liveness-based instruction-level DCE.  Removing an instruction only once
   its destination has no remaining textual uses would leave a cluster of
   pure instructions that feed each other — a phi-carried cycle whose value
   never escapes being the canonical case — in place forever.  Marking live
   instructions backward from the observable roots (calls, stores, loads,
   terminators) removes the whole cluster at once.

   Two extra liveness-derived rewrites ride along: a store into an alloca
   slot that is never loaded and never escapes ({!Analysis.write_only_slots})
   is dropped, and so is the alloca itself once its stores are gone. *)

module SS = Analysis.SS

let droppable (i : Ir.instr) =
  match i with
  | Ir.Binop _ | Ir.Icmp _ | Ir.Gep _ | Ir.Select _ | Ir.Phi _ | Ir.Alloca _ -> true
  | Ir.Call _ | Ir.Load _ | Ir.Store _ -> false

let run_func (f : Ir.func) =
  let dead_slots = Analysis.write_only_slots f in
  let dead_store (i : Ir.instr) =
    match i with
    | Ir.Store { ptr = Ir.Local p; _ } -> SS.mem p dead_slots
    | _ -> false
  in
  (* Seed the needed set from every instruction that must stay, then chase
     definitions backward through the def-use graph. *)
  let def_of : (string, Ir.instr) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          match Analysis.instr_dst i with
          | Some d -> if not (Hashtbl.mem def_of d) then Hashtbl.add def_of d i
          | None -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  let needed = Hashtbl.create 64 in
  let queue = Queue.create () in
  let require v =
    match v with
    | Ir.Local l ->
        if not (Hashtbl.mem needed l) then begin
          Hashtbl.replace needed l ();
          Queue.add l queue
        end
    | Ir.Const _ -> ()
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          if (not (droppable i)) && not (dead_store i) then
            Analysis.iter_operands require i)
        b.Ir.instrs;
      List.iter require (Analysis.term_operands b.Ir.term))
    f.Ir.blocks;
  while not (Queue.is_empty queue) do
    let l = Queue.pop queue in
    match Hashtbl.find_opt def_of l with
    | Some i -> Analysis.iter_operands require i
    | None -> ()
  done;
  let keep (i : Ir.instr) =
    if dead_store i then false
    else if not (droppable i) then true
    else
      match Analysis.instr_dst i with
      | Some d -> Hashtbl.mem needed d
      | None -> true
  in
  {
    f with
    Ir.blocks =
      List.map (fun (b : Ir.block) -> { b with Ir.instrs = List.filter keep b.Ir.instrs }) f.Ir.blocks;
  }

let run (m : Ir.modul) =
  Ir.map_funcs (fun f -> if Ir.is_declaration f then f else run_func f) m
