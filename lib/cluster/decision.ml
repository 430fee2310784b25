module Callgraph = Quilt_dag.Callgraph
module Drift = Quilt_dag.Drift
module Rng = Quilt_util.Rng
module Pool = Quilt_util.Pool

type algorithm = Optimal | Dih | Weighted_degree | Grasp

let algorithm_name = function
  | Optimal -> "optimal"
  | Dih -> "downstream-impact"
  | Weighted_degree -> "weighted-degree"
  | Grasp -> "grasp"

let validated g lim sol =
  match sol with
  | None -> None
  | Some s -> (
      match Metrics.solution_valid g lim s with
      | Ok () -> Some s
      | Error msg -> failwith (Printf.sprintf "Decision.solve: invalid solution produced: %s" msg))

let solve ?(seed = 1) ?(domains = 1) algorithm (g : Callgraph.t) (lim : Types.limits) =
  let domains = if Pool.sequential_forced () then 1 else max 1 domains in
  let sol =
    match algorithm with
    | Optimal -> Optimal.solve ~domains g lim
    | Dih -> Dih.solve ~domains g lim
    | Weighted_degree -> Heur.solve_weighted_degree ~domains g lim
    | Grasp -> Grasp.solve ~domains (Rng.create seed) g lim
  in
  validated g lim sol

let auto_algorithm (g : Callgraph.t) =
  let n = Callgraph.n_nodes g in
  if n <= 12 then Optimal else if n <= 60 then Dih else Grasp

(* Portfolio racing (tentpole layer 2).

   The exact regime (n <= 12) races three arms: DIH and GRASP run on their
   own domains as {e advisory} arms whose solution costs are CAS-published
   into a shared incumbent the moment they finish, while the exact sweep
   runs in the calling domain with the remaining parallelism.  Every
   heuristic solution is a feasible point of the same global problem, so
   its cost upper-bounds the optimum and can only prune the exact search,
   never change its answer: the result returned is the exact arm's, equal
   to the sequential [auto] on every seed.

   In the heuristic regimes the primary's own sweep is what parallelizes
   (racing arms whose output must be discarded for determinism would burn a
   domain for nothing): DIH fans its per-k root subsets out with a shared
   incumbent; GRASP fans each pruning round's candidates.  External
   incumbents are deliberately {e not} threaded into the sweeps — a foreign
   bound would perturb the per-k improvement flags and hence the
   patience-based stopping point, breaking output parity.

   [budget_s] opts into the non-deterministic time budget: if the exact arm
   exceeds it, the best solution known across all arms is returned. *)
let race ~incumbent ~arms primary =
  let spawn f =
    Domain.spawn (fun () ->
        let r = f () in
        Option.iter (fun (s : Types.solution) -> Closure.atomic_min incumbent s.Types.cost) r;
        r)
  in
  let running = List.map spawn arms in
  let settle f = match f () with r -> Ok r | exception e -> Error e in
  let primary = settle primary in
  (* Every arm is joined before anything is returned or raised, so no
     domain outlives the race. *)
  let joined = List.map (fun d -> settle (fun () -> Domain.join d)) running in
  let get = function Ok r -> r | Error e -> raise e in
  let primary = get primary in
  (primary, List.map get joined)

let auto_portfolio ~seed ~domains ?budget_s (g : Callgraph.t) (lim : Types.limits) =
  let incumbent = Atomic.make max_int in
  let deadline = Option.map (fun b -> Closure.now_s () +. b) budget_s in
  let exact, arm_results =
    race ~incumbent
      ~arms:[ (fun () -> Dih.solve g lim); (fun () -> Grasp.solve (Rng.create seed) g lim) ]
      (fun () -> Optimal.solve ~domains:(max 1 (domains - 2)) ~incumbent ?deadline g lim)
  in
  match budget_s with
  | None -> exact
  | Some _ ->
      (* Budget mode: the exact arm may have been cut short; fall back to
         the cheapest arm seen. *)
      let best =
        List.fold_left
          (fun acc r ->
            match (acc, r) with
            | None, r -> r
            | Some (a : Types.solution), Some (b : Types.solution) ->
                if b.Types.cost < a.Types.cost then Some b else Some a
            | Some a, None -> Some a)
          exact arm_results
      in
      best

let auto ?(seed = 1) ?domains ?budget_s (g : Callgraph.t) (lim : Types.limits) =
  let domains =
    let requested = match domains with Some d -> d | None -> Pool.default_domains () in
    if Pool.sequential_forced () then 1 else max 1 requested
  in
  let algorithm = auto_algorithm g in
  if domains <= 1 then solve ~seed algorithm g lim
  else
    match algorithm with
    | Optimal -> validated g lim (auto_portfolio ~seed ~domains ?budget_s g lim)
    | _ -> solve ~seed ~domains algorithm g lim

(* --- Warm-start incremental re-decision (tentpole layer 3) --- *)

(* Re-decide only the previous solution's groups that intersect the drift
   report's touched set; splice every untouched group through unchanged.

   Soundness rests on two facts.  (1) A group that is still feasible as a
   single container is locally optimal (its internal cut cost is 0), so the
   local re-solve of an untouched group provably returns the group itself —
   which is why "incremental" and "re-decide everything" agree on the
   untouched part (the differential tests pin this).  (2) Any structural
   change a local re-solve makes (splitting a group into sub-groups) only
   adds roots; cross-group invariants that splicing might break are caught
   by the full {!Metrics.solution_valid} check at the end, and the function
   returns [None] — callers then fall back to a from-scratch solve.  The
   same [None] fallback covers topology drift, where group membership
   itself is stale. *)
let resolve_incremental ?(seed = 1) ?(domains = 1) ~prev_graph ~(prev : Types.solution) ~report
    (g : Callgraph.t) (lim : Types.limits) =
  if Drift.topology_changed report then None
  else begin
    let n = Callgraph.n_nodes g in
    let new_id = Hashtbl.create n in
    Array.iter (fun (nd : Callgraph.node) -> Hashtbl.replace new_id nd.Callgraph.name nd.Callgraph.id) g.Callgraph.nodes;
    let old_name id = (Callgraph.node prev_graph id).Callgraph.name in
    match
      let remap old = Hashtbl.find new_id (old_name old) in
      let touched = Hashtbl.create 8 in
      List.iter (fun f -> Hashtbl.replace touched f ()) (Drift.touched_functions report);
      let name_touched nm = Hashtbl.mem touched nm in
      (* One entry per previous group: global member ids on [g], remapped. *)
      let groups =
        List.map
          (fun (sg : Types.subgraph) ->
            let members = ref [] in
            Array.iteri (fun i b -> if b then members := remap i :: !members) sg.Types.members;
            (remap sg.Types.root, List.sort compare !members, sg))
          prev.Types.subgraphs
      in
      (* A still-feasible single container is locally optimal (internal cut
         cost 0): keep it whole.  Mirrors what a local re-solve would
         decide, but without paying for it. *)
      let keep_whole root members =
        let bits = Array.make n false in
        List.iter (fun v -> bits.(v) <- true) members;
        let all_mergeable =
          List.length members = 1
          || List.for_all (fun v -> (Callgraph.node g v).Callgraph.mergeable) members
        in
        let b = Quilt_util.Bitset.of_bool_array bits in
        let cpu, mem = Closure.resources_bits g ~members:b ~root in
        let fits = cpu <= lim.Types.max_cpu +. 1e-9 && mem <= lim.Types.max_mem_mb +. 1e-9 in
        if all_mergeable && fits && Closure.connected_bits g ~members:b ~root then
          Some [ (root, members) ]
        else None
      in
      (* Full local re-solve on the induced sub-callgraph. *)
      let local_resolve root members =
        match keep_whole root members with
        | Some groups -> Some groups
        | None ->
            let member_arr = Array.of_list members in
            let local_of = Hashtbl.create 8 in
            Array.iteri (fun i v -> Hashtbl.replace local_of v i) member_arr;
            let nodes =
              Array.mapi
                (fun i v ->
                  let nd = Callgraph.node g v in
                  { nd with Callgraph.id = i })
                member_arr
            in
            let edges =
              List.filter_map
                (fun (e : Callgraph.edge) ->
                  match (Hashtbl.find_opt local_of e.Callgraph.src, Hashtbl.find_opt local_of e.Callgraph.dst) with
                  | Some s, Some d -> Some { e with Callgraph.src = s; Callgraph.dst = d }
                  | _ -> None)
                g.Callgraph.edges
            in
            let lg =
              Callgraph.make ~nodes ~edges
                ~root:(Hashtbl.find local_of root)
                ~invocations:g.Callgraph.invocations
            in
            let sub =
              let algorithm = auto_algorithm lg in
              solve ~seed ~domains algorithm lg lim
            in
            Option.map
              (fun (s : Types.solution) ->
                List.map
                  (fun (sg : Types.subgraph) ->
                    let ms = ref [] in
                    Array.iteri (fun i b -> if b then ms := member_arr.(i) :: !ms) sg.Types.members;
                    (member_arr.(sg.Types.root), List.sort compare !ms))
                  s.Types.subgraphs)
              sub
      in
      let resolved =
        List.map
          (fun (root, members, _sg) ->
            let is_touched = List.exists (fun v -> name_touched (Callgraph.node g v).Callgraph.name) members in
            if is_touched then local_resolve root members
            else
              (* Untouched: splice through unchanged (provably what a local
                 re-solve returns, see above). *)
              Some [ (root, members) ])
          groups
      in
      if List.exists (fun r -> r = None) resolved then None
      else begin
        let flat = List.concat_map Option.get resolved in
        (* Deterministic assembly order: the graph root's group first, the
           rest by ascending root id. *)
        let entry, rest = List.partition (fun (r, _) -> r = g.Callgraph.root) flat in
        let rest = List.sort (fun (a, _) (b, _) -> compare a b) rest in
        let ordered = entry @ rest in
        let subgraphs =
          List.map
            (fun (root, members) ->
              let bits = Array.make n false in
              List.iter (fun v -> bits.(v) <- true) members;
              let cpu, mem = Closure.resources g ~members:bits ~root in
              { Types.root; absorbed = [ root ]; members = bits; cpu; mem_mb = mem })
            ordered
        in
        let cost = ref 0 in
        List.iter
          (fun (e : Callgraph.edge) ->
            let cut =
              List.exists
                (fun sg -> sg.Types.members.(e.Callgraph.src) && not sg.Types.members.(e.Callgraph.dst))
                subgraphs
            in
            if cut then cost := !cost + e.Callgraph.weight)
          g.Callgraph.edges;
        let sol = { Types.roots = List.map fst ordered; subgraphs; cost = !cost } in
        match Metrics.solution_valid g lim sol with Ok () -> Some sol | Error _ -> None
      end
    with
    | result -> result
    | exception Not_found -> None (* a function name moved: treat as topology drift *)
    | exception Invalid_argument _ -> None (* induced subgraph not well-formed *)
  end
