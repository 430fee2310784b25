(* Control-flow cleanup after constant propagation: SCCP leaves behind
   two-way branches with equal arms, empty blocks that only forward, and
   straight-line chains split across blocks.  Each rewrite keeps every phi
   in the function consistent with the edges it sees. *)

let retarget_term ~from ~to_ (t : Ir.terminator) =
  let r l = if l = from then to_ else l in
  match t with
  | Ir.Br l -> Ir.Br (r l)
  | Ir.Cbr { cond; if_true; if_false } -> Ir.Cbr { cond; if_true = r if_true; if_false = r if_false }
  | Ir.Ret _ | Ir.Unreachable -> t

let term_targets = function
  | Ir.Ret _ | Ir.Unreachable -> []
  | Ir.Br l -> [ l ]
  | Ir.Cbr { if_true; if_false; _ } ->
      if if_true = if_false then [ if_true ] else [ if_true; if_false ]

(* cbr %c, %l, %l  →  br %l *)
let collapse_cbr (b : Ir.block) =
  match b.Ir.term with
  | Ir.Cbr { if_true; if_false; _ } when if_true = if_false -> { b with Ir.term = Ir.Br if_true }
  | _ -> b

let preds_of blocks label =
  List.filter (fun (b : Ir.block) -> List.mem label (term_targets b.Ir.term)) blocks

(* Bypass one empty forwarding block, atomically over all its
   predecessors, or not at all: partial redirection would leave the
   successor's phis seeing a predecessor twice. *)
let try_bypass (blocks : Ir.block list) =
  let find_opt lbl = List.find_opt (fun (b : Ir.block) -> b.Ir.label = lbl) blocks in
  let candidate (b : Ir.block) =
    match (blocks, b.Ir.instrs, b.Ir.term) with
    | first :: _, [], Ir.Br target when b.Ir.label <> first.Ir.label && target <> b.Ir.label -> (
        match find_opt target with Some t -> Some (b, t) | None -> None)
    | _ -> None
  in
  let phi_incomings (t : Ir.block) =
    List.filter_map (fun i -> match i with Ir.Phi { incoming; _ } -> Some incoming | _ -> None) t.Ir.instrs
  in
  let safe (b : Ir.block) (t : Ir.block) =
    let preds = preds_of blocks b.Ir.label in
    List.for_all
      (fun incoming ->
        match List.assoc_opt b.Ir.label (List.map (fun (v, l) -> (l, v)) incoming) with
        | None -> false (* ill-formed phi; leave it for the verifier *)
        | Some vb ->
            List.for_all
              (fun (p : Ir.block) ->
                match List.find_opt (fun (_, l) -> l = p.Ir.label) incoming with
                | None -> true
                | Some (vp, _) -> vp = vb)
              preds)
      (phi_incomings t)
  in
  let rec pick = function
    | [] -> None
    | b :: rest -> (
        match candidate b with
        | Some (b, t) when safe b t -> Some (b, t)
        | _ -> pick rest)
  in
  match pick blocks with
  | None -> None
  | Some (fwd, target) ->
      let pred_labels = List.map (fun (p : Ir.block) -> p.Ir.label) (preds_of blocks fwd.Ir.label) in
      let fix_phi (i : Ir.instr) =
        match i with
        | Ir.Phi p -> (
            match List.find_opt (fun (_, l) -> l = fwd.Ir.label) p.incoming with
            | None -> i
            | Some (vb, _) ->
                let kept = List.filter (fun (_, l) -> l <> fwd.Ir.label) p.incoming in
                let added =
                  List.filter_map
                    (fun pl ->
                      if List.exists (fun (_, l) -> l = pl) kept then None else Some (vb, pl))
                    pred_labels
                in
                Ir.Phi { p with incoming = kept @ added })
        | _ -> i
      in
      Some
        (List.map
           (fun (b : Ir.block) ->
             let b =
               if b.Ir.label = target.Ir.label then
                 { b with Ir.instrs = List.map fix_phi b.Ir.instrs }
               else b
             in
             if b.Ir.label = fwd.Ir.label then b
             else { b with Ir.term = retarget_term ~from:fwd.Ir.label ~to_:target.Ir.label b.Ir.term })
           blocks)

(* Absorb a phi-free block into its unique predecessor. *)
let try_coalesce (blocks : Ir.block list) =
  let has_phi (b : Ir.block) =
    List.exists (fun i -> match i with Ir.Phi _ -> true | _ -> false) b.Ir.instrs
  in
  let entry_label = match blocks with b :: _ -> b.Ir.label | [] -> "" in
  let rec pick = function
    | [] -> None
    | (p : Ir.block) :: rest -> (
        match p.Ir.term with
        | Ir.Br t
          when t <> entry_label && t <> p.Ir.label
               && List.length (preds_of blocks t) = 1 -> (
            match List.find_opt (fun (b : Ir.block) -> b.Ir.label = t) blocks with
            | Some target when not (has_phi target) -> Some (p, target)
            | _ -> pick rest)
        | _ -> pick rest)
  in
  match pick blocks with
  | None -> None
  | Some (p, target) ->
      let merged =
        { p with Ir.instrs = p.Ir.instrs @ target.Ir.instrs; term = target.Ir.term }
      in
      let fix_phi (i : Ir.instr) =
        match i with
        | Ir.Phi ph ->
            Ir.Phi
              {
                ph with
                incoming =
                  List.map
                    (fun (v, l) -> (v, if l = target.Ir.label then p.Ir.label else l))
                    ph.incoming;
              }
        | _ -> i
      in
      Some
        (List.filter_map
           (fun (b : Ir.block) ->
             if b.Ir.label = target.Ir.label then None
             else if b.Ir.label = p.Ir.label then Some merged
             else Some { b with Ir.instrs = List.map fix_phi b.Ir.instrs })
           blocks)

let drop_unreachable (f : Ir.func) =
  let cfg = Analysis.cfg_of_func f in
  let reachable = cfg.Analysis.reachable in
  let blocks =
    if Array.for_all Fun.id reachable then f.Ir.blocks
    else List.filteri (fun i _ -> reachable.(i)) f.Ir.blocks
  in
  let labels = List.map (fun (b : Ir.block) -> b.Ir.label) blocks in
  (* Dropping a block invalidates incomings that named it. *)
  let prune (i : Ir.instr) =
    match i with
    | Ir.Phi p ->
        let incoming = List.filter (fun (_, l) -> List.mem l labels) p.incoming in
        if incoming = [] || List.compare_lengths incoming p.incoming = 0 then i
        else Ir.Phi { p with incoming }
    | _ -> i
  in
  let blocks =
    Ir.map_same
      (fun (b : Ir.block) ->
        let instrs = Ir.map_same prune b.Ir.instrs in
        if instrs == b.Ir.instrs then b else { b with Ir.instrs })
      blocks
  in
  if blocks == f.Ir.blocks then f else { f with Ir.blocks }

let run_func (f : Ir.func) =
  let rec fix blocks budget =
    if budget = 0 then blocks
    else begin
      let blocks = Ir.map_same collapse_cbr blocks in
      match try_bypass blocks with
      | Some blocks' -> fix blocks' (budget - 1)
      | None -> (
          match try_coalesce blocks with
          | Some blocks' -> fix blocks' (budget - 1)
          | None -> blocks)
    end
  in
  (* Each rewrite removes an edge or a block, so #blocks * 2 rounds is a
     generous fixpoint bound. *)
  let blocks = fix f.Ir.blocks ((2 * List.length f.Ir.blocks) + 4) in
  drop_unreachable (if blocks == f.Ir.blocks then f else { f with Ir.blocks })

let run (m : Ir.modul) =
  Ir.map_funcs (fun f -> if Ir.is_declaration f then f else run_func f) m
