module Callgraph = Quilt_dag.Callgraph
module Bitset = Quilt_util.Bitset

(* One named constant shared by the exact solver and the dispatcher: instances
   with more roots than this (or more root-targeted edges than
   [exact_max_root_edges]) go to the greedy solver. *)
let exact_max_roots = 14

let exact_max_root_edges = 62

(* --- Bitset kernels --- *)

let nr_closure_bits (g : Callgraph.t) ~(is_root : Bitset.t) start =
  let members = Bitset.create (Callgraph.n_nodes g) in
  let rec visit v =
    if not (Bitset.mem members v) then begin
      Bitset.set members v;
      Array.iter
        (fun (e : Callgraph.edge) -> if not (Bitset.mem is_root e.dst) then visit e.dst)
        (Callgraph.out_edges g v)
    end
  in
  visit start;
  members

let nr_closure (g : Callgraph.t) ~is_root start =
  Bitset.to_bool_array (nr_closure_bits g ~is_root:(Bitset.of_bool_array is_root) start)

(* Resource demand of a member set, per Appendix B constraints 6–7: iterate
   the members' outgoing adjacency and count every internal edge's callee
   contribution.  All contributions are integer-valued in the profiled
   graphs, so the summation order (a permutation of the edge list) cannot
   change the result. *)
let resources_bits (g : Callgraph.t) ~(members : Bitset.t) ~root =
  let open Callgraph in
  let rn = node g root in
  let cpu = ref rn.cpu and mem = ref rn.mem_mb in
  Bitset.iter
    (fun v ->
      Array.iter
        (fun e ->
          if Bitset.mem members e.dst then begin
            let a = float_of_int (alpha g e) in
            let callee = node g e.dst in
            cpu := !cpu +. (a *. callee.cpu);
            mem := !mem +. callee.mem_mb;
            match e.kind with
            | Async -> mem := !mem +. ((a -. 1.0) *. callee.mem_mb)
            | Sync -> ()
          end)
        (out_edges g v))
    members;
  (!cpu, !mem)

let resources (g : Callgraph.t) ~members ~root =
  resources_bits g ~members:(Bitset.of_bool_array members) ~root

let feasible (lim : Types.limits) (cpu, mem) = cpu <= lim.max_cpu +. 1e-9 && mem <= lim.max_mem_mb +. 1e-9

(* Connectivity per ILP constraint 3: every member except the subgraph root
   has an in-edge from another member.  In a DAG this is equivalent to every
   member being reachable from the root within the member set. *)
let connected_bits (g : Callgraph.t) ~(members : Bitset.t) ~root =
  try
    Bitset.iter
      (fun j ->
        if j <> root then begin
          let has_pred =
            Array.exists (fun (e : Callgraph.edge) -> Bitset.mem members e.src) (Callgraph.in_edges g j)
          in
          if not has_pred then raise Exit
        end)
      members;
    true
  with Exit -> false

(* Non-mergeable functions (§1.1's opt-in bit) are forced to be singleton
   groups: they and every one of their callees become roots, they absorb
   nothing, and nothing absorbs them. *)
let forced_roots (g : Callgraph.t) =
  let out = ref [] in
  Array.iter
    (fun (nd : Callgraph.node) ->
      if not nd.Callgraph.mergeable then begin
        out := nd.Callgraph.id :: !out;
        Callgraph.iter_succs g nd.Callgraph.id (fun e -> out := e.Callgraph.dst :: !out)
      end)
    g.Callgraph.nodes;
  List.sort_uniq compare !out

let normalize_roots (g : Callgraph.t) roots =
  let seen = Hashtbl.create 8 in
  let uniq =
    List.filter
      (fun r ->
        if Hashtbl.mem seen r then false
        else begin
          Hashtbl.add seen r ();
          true
        end)
      (roots @ forced_roots g)
  in
  let uniq = if List.mem g.Callgraph.root uniq then uniq else g.Callgraph.root :: uniq in
  (* Global root first. *)
  g.Callgraph.root :: List.filter (fun r -> r <> g.Callgraph.root) uniq

let root_bitset (g : Callgraph.t) roots =
  let is_root = Bitset.create (Callgraph.n_nodes g) in
  List.iter (Bitset.set is_root) roots;
  is_root

let root_set_feasible (g : Callgraph.t) (lim : Types.limits) ~roots =
  let roots = normalize_roots g roots in
  let is_root = root_bitset g roots in
  List.for_all
    (fun r ->
      let members = nr_closure_bits g ~is_root r in
      feasible lim (resources_bits g ~members ~root:r))
    roots

(* Union of closures for an absorb set, word by word. *)
let members_of_absorb (g : Callgraph.t) closures absorb =
  let m = Bitset.create (Callgraph.n_nodes g) in
  List.iter (fun s -> Bitset.union_into ~dst:m closures.(s)) absorb;
  m

let build_solution (g : Callgraph.t) roots choices =
  (* choices: (root, absorb list, members bitset) list *)
  let cost = ref 0 in
  List.iter
    (fun (e : Callgraph.edge) ->
      let cut =
        List.exists
          (fun (_, absorb, members) ->
            Bitset.mem members e.src && not (List.mem e.dst absorb || Bitset.mem members e.dst))
          choices
      in
      if cut then cost := !cost + e.weight)
    g.Callgraph.edges;
  let subgraphs =
    List.map
      (fun (r, absorb, members) ->
        let cpu, mem = resources_bits g ~members ~root:r in
        { Types.root = r; absorbed = absorb; members = Bitset.to_bool_array members; cpu; mem_mb = mem })
      choices
  in
  { Types.roots; subgraphs; cost = !cost }

(* --- Exact search --- *)

type choice = {
  absorb : int list;  (* absorbed roots, including the subgraph's own root *)
  members : Bitset.t;
  cut_mask : int;  (* bitmask over root-targeted edges this choice cuts *)
}

(* Everything the exact search needs that does not depend on the search
   strategy: normalized roots, root-targeted edge array and the per-root
   feasible choices sorted ascending by own cut weight.  Shared by the
   sequential and the parallel searches so both explore choices in the same
   order — the basis of the bit-identical-output guarantee. *)
type exact_instance = {
  xi_roots : int list;
  xi_k : int;
  xi_redges : Callgraph.edge array;
  xi_sorted : choice array array;  (* per root, ascending own cut weight *)
}

let mask_weight redges mask =
  let acc = ref 0 in
  Array.iteri
    (fun idx (e : Callgraph.edge) -> if mask land (1 lsl idx) <> 0 then acc := !acc + e.Callgraph.weight)
    redges;
  !acc

let prepare_exact ?(prune = false) (g : Callgraph.t) (lim : Types.limits) ~roots =
  let roots = normalize_roots g roots in
  let k = List.length roots in
  if k > exact_max_roots then invalid_arg "Closure.solve_exact: too many roots (use solve_greedy)";
  let is_root = root_bitset g roots in
  (* Edges whose target is a root are the only cuttable edges. *)
  let root_edges =
    List.filter (fun (e : Callgraph.edge) -> Bitset.mem is_root e.Callgraph.dst) g.Callgraph.edges
  in
  let n_redges = List.length root_edges in
  if n_redges > exact_max_root_edges then
    invalid_arg "Closure.solve_exact: too many root-targeted edges";
  let redge_arr = Array.of_list root_edges in
  let closures = Array.make (Callgraph.n_nodes g) (Bitset.create 0) in
  List.iter (fun r -> closures.(r) <- nr_closure_bits g ~is_root r) roots;
  let root_arr = Array.of_list roots in
  (* Enumerate feasible absorb sets per root.  Both enumerations emit the
     same choices in the same (ascending-mask) order; [prune] only skips
     work that provably cannot produce a feasible choice. *)
  let feasible_choices r =
    let pinned = not (Callgraph.node g r).Callgraph.mergeable in
    let others =
      if pinned then []
      else
        List.filter (fun s -> s <> r && (Callgraph.node g s).Callgraph.mergeable) roots
    in
    let others = Array.of_list others in
    let n_others = Array.length others in
    let out = ref [] in
    let absorb_of_mask mask =
      let absorb = ref [ r ] in
      for b = 0 to n_others - 1 do
        if mask land (1 lsl b) <> 0 then absorb := others.(b) :: !absorb
      done;
      !absorb
    in
    let emit mask members =
      (* Which root-targeted edges does this subgraph cut?  Edge (i,j) is
         cut by G_r when i is a member but j is not absorbed. *)
      let cut = ref 0 in
      Array.iteri
        (fun idx (e : Callgraph.edge) ->
          if Bitset.mem members e.src && not (Bitset.mem members e.dst) then cut := !cut lor (1 lsl idx))
        redge_arr;
      out := { absorb = absorb_of_mask mask; members; cut_mask = !cut } :: !out
    in
    if not prune then
      for mask = 0 to (1 lsl n_others) - 1 do
        let members = members_of_absorb g closures (absorb_of_mask mask) in
        if connected_bits g ~members ~root:r && feasible lim (resources_bits g ~members ~root:r) then
          emit mask members
      done
    else begin
      (* Lattice walk over absorb sets, most-significant bit decided first
         with the exclude branch taken before the include branch: it visits
         masks in the same ascending numeric order as the loop above and
         emits the identical choice list, but

         - an include step that blows the resource limits cuts its whole
           subtree: resource demand is monotone in the member set (every
           internal edge contributes nonnegatively, [Callgraph.alpha] >= 1),
           so every superset of an infeasible absorb set is infeasible;
         - resource totals are maintained incrementally along the walk, the
           way {!solve_greedy}'s move evaluation does: an include step only
           accounts the edges that become internal when [s]'s closure joins
           the member set, O(|closure delta|) instead of O(|members|).  All
           contributions are integer-valued in the profiled graphs, so the
           running sums equal the from-scratch sums exactly;
         - connectivity reduces to the included roots: a closure is
           internally connected from its own root, so the union of closures
           satisfies constraint 3 iff every absorbed root has a caller among
           the final members — checked per emitted set in O(k * in-degree)
           instead of a full member scan. *)
      let account dcpu dmem (e : Callgraph.edge) =
        let a = float_of_int (Callgraph.alpha g e) in
        let callee = Callgraph.node g e.dst in
        dcpu := !dcpu +. (a *. callee.Callgraph.cpu);
        dmem := !dmem +. callee.Callgraph.mem_mb;
        match e.Callgraph.kind with
        | Callgraph.Async -> dmem := !dmem +. ((a -. 1.0) *. callee.Callgraph.mem_mb)
        | Callgraph.Sync -> ()
      in
      let delta_of members s =
        let delta = Bitset.diff closures.(s) members in
        let dcpu = ref 0.0 and dmem = ref 0.0 in
        Bitset.iter
          (fun v ->
            Array.iter
              (fun (e : Callgraph.edge) ->
                if Bitset.mem members e.dst || Bitset.mem delta e.dst then account dcpu dmem e)
              (Callgraph.out_edges g v);
            Array.iter
              (fun (e : Callgraph.edge) -> if Bitset.mem members e.src then account dcpu dmem e)
              (Callgraph.in_edges g v))
          delta;
        (delta, !dcpu, !dmem)
      in
      let roots_connected mask members =
        let ok = ref true in
        for b = 0 to n_others - 1 do
          if !ok && mask land (1 lsl b) <> 0 then
            if
              not
                (Array.exists
                   (fun (e : Callgraph.edge) -> Bitset.mem members e.src)
                   (Callgraph.in_edges g others.(b)))
            then ok := false
        done;
        !ok
      in
      (* Connectable-candidate prefilter: a root [s] can only ever be
         absorbed when some member calls it, and members are unions of
         closures — so compute the least fixed point of "s has a caller in
         the base closure or in an already-connectable root's closure".
         Any connected absorb set is contained in it (the provider relation
         is acyclic in a DAG), so skipping the other bits loses nothing and
         collapses the walk for roots that cannot reach their peers. *)
      let provided_by t s =
        Array.exists (fun (e : Callgraph.edge) -> Bitset.mem closures.(t) e.src) (Callgraph.in_edges g s)
      in
      let prov = Array.map (fun s ->
          let m = ref 0 in
          Array.iteri (fun b t -> if provided_by t s then m := !m lor (1 lsl b)) others;
          !m)
          others
      in
      let connectable =
        let acc = ref 0 in
        let changed = ref true in
        while !changed do
          changed := false;
          Array.iteri
            (fun b s ->
              if
                !acc land (1 lsl b) = 0
                && (provided_by r s || prov.(b) land !acc <> 0)
              then begin
                acc := !acc lor (1 lsl b);
                changed := true
              end)
            others
        done;
        !acc
      in
      let rec walk b mask members cpu mem feas =
        if b < 0 then begin
          if feas && roots_connected mask members then emit mask members
        end
        else begin
          walk (b - 1) mask members cpu mem feas;
          if feas && connectable land (1 lsl b) <> 0 then begin
            let s = others.(b) in
            let delta, dcpu, dmem = delta_of members s in
            let cpu' = cpu +. dcpu and mem' = mem +. dmem in
            if feasible lim (cpu', mem') then begin
              let members' = Bitset.copy members in
              Bitset.union_into ~dst:members' delta;
              walk (b - 1) (mask lor (1 lsl b)) members' cpu' mem' true
            end
          end
        end
      in
      let base = Bitset.copy closures.(r) in
      let base_cpu, base_mem = resources_bits g ~members:base ~root:r in
      (* The base set being infeasible kills every mask — supersets all
         inherit the overrun — but the walk still descends exclude branches
         with [feas = false] so nothing is emitted, mirroring the loop. *)
      walk (n_others - 1) 0 base base_cpu base_mem (feasible lim (base_cpu, base_mem))
    end;
    !out
  in
  let all_choices = Array.map feasible_choices root_arr in
  if Array.exists (fun l -> l = []) all_choices then None
  else begin
    (* Order each root's choices by the weight they cut on their own, so the
       branch-and-bound finds good incumbents early. *)
    let sorted_choices =
      Array.map
        (fun l ->
          List.map (fun c -> (mask_weight redge_arr c.cut_mask, c)) l
          |> List.sort (fun (wa, _) (wb, _) -> compare wa wb)
          |> List.map snd |> Array.of_list)
        all_choices
    in
    Some { xi_roots = roots; xi_k = k; xi_redges = redge_arr; xi_sorted = sorted_choices }
  end

let solution_of_pick g { xi_roots; xi_k = _; _ } pick =
  let choices =
    List.mapi
      (fun i r ->
        match pick.(i) with Some c -> (r, c.absorb, c.members) | None -> assert false)
      xi_roots
  in
  Some (build_solution g xi_roots choices)

let solve_exact (g : Callgraph.t) (lim : Types.limits) ~roots =
  match prepare_exact g lim ~roots with
  | None -> None
  | Some ({ xi_k = k; xi_redges; xi_sorted = sorted_choices; _ } as xi) ->
      let weight_of_mask mask = mask_weight xi_redges mask in
      let best_cost = ref max_int in
      let best_pick = Array.make k None in
      let current = Array.make k None in
      let rec search idx acc_mask =
        let acc_weight = weight_of_mask acc_mask in
        if acc_weight < !best_cost then begin
          if idx = k then begin
            best_cost := acc_weight;
            Array.blit current 0 best_pick 0 k
          end
          else
            Array.iter
              (fun c ->
                current.(idx) <- Some c;
                search (idx + 1) (acc_mask lor c.cut_mask))
              sorted_choices.(idx)
        end
      in
      search 0 0;
      if !best_cost = max_int then None else solution_of_pick g xi best_pick

(* --- Greedy search for large instances --- *)

(* The greedy hill-climb evaluates every (subgraph, absorbable-root) move per
   round.  Rebuilding the full solution per candidate is O(k·|E|) — instead
   we keep, per subgraph: its member bitset, absorb set, resource totals, and
   the set of root-targeted edges it currently cuts; plus a global per-edge
   cut count.  A candidate is then scored by (a) a resource delta over the
   vertices the move would add and (b) a cut-weight delta over the
   root-targeted edges — no solution rebuild.  Absorbing j into G_r keeps
   G_r connected automatically: the move requires an internal caller of j,
   and everything else it adds is j's closure, reachable from j. *)
let solve_greedy (g : Callgraph.t) (lim : Types.limits) ~roots =
  let open Callgraph in
  let roots = normalize_roots g roots in
  let n = Callgraph.n_nodes g in
  let is_root = root_bitset g roots in
  let closures = Array.make n (Bitset.create 0) in
  List.iter (fun r -> closures.(r) <- nr_closure_bits g ~is_root r) roots;
  let root_arr = Array.of_list roots in
  let k = Array.length root_arr in
  (* Mutable per-subgraph state, indexed like [root_arr]. *)
  let members = Array.map (fun r -> Bitset.copy closures.(r)) root_arr in
  let absorb = Array.map (fun r -> [ r ]) root_arr in
  let in_absorb =
    Array.map
      (fun r ->
        let b = Bitset.create n in
        Bitset.set b r;
        b)
      root_arr
  in
  let res = Array.map (fun r -> resources_bits g ~members:closures.(r) ~root:r) root_arr in
  (* Start from minimal absorb sets; bail if even those are infeasible. *)
  let all_feasible () =
    let ok = ref true in
    Array.iteri
      (fun i r ->
        if !ok then
          ok := connected_bits g ~members:members.(i) ~root:r && feasible lim res.(i))
      root_arr;
    !ok
  in
  if not (all_feasible ()) then None
  else begin
    (* Root-targeted edges and their per-subgraph cut state. *)
    let redge_arr = Array.of_list (List.filter (fun e -> Bitset.mem is_root e.dst) g.Callgraph.edges) in
    let n_redges = Array.length redge_arr in
    let cut = Array.make k (Bitset.create 0) in
    let cut_count = Array.make n_redges 0 in
    for i = 0 to k - 1 do
      let c = Bitset.create n_redges in
      Array.iteri
        (fun ei e ->
          if Bitset.mem members.(i) e.src && not (Bitset.mem in_absorb.(i) e.dst) then begin
            Bitset.set c ei;
            cut_count.(ei) <- cut_count.(ei) + 1
          end)
        redge_arr;
      cut.(i) <- c
    done;
    let cost = ref 0 in
    Array.iteri (fun ei e -> if cut_count.(ei) > 0 then cost := !cost + e.weight) redge_arr;
    (* Resource delta of absorbing root [j] into subgraph [i]: sum the callee
       contributions of the edges that become internal — edges out of the
       added vertices into the grown member set, and edges from the old
       member set into the added vertices. *)
    let move_delta i j =
      let delta = Bitset.diff closures.(j) members.(i) in
      let dcpu = ref 0.0 and dmem = ref 0.0 in
      let account (e : edge) =
        let a = float_of_int (alpha g e) in
        let callee = node g e.dst in
        dcpu := !dcpu +. (a *. callee.cpu);
        dmem := !dmem +. callee.mem_mb;
        match e.kind with
        | Async -> dmem := !dmem +. ((a -. 1.0) *. callee.mem_mb)
        | Sync -> ()
      in
      Bitset.iter
        (fun v ->
          Array.iter
            (fun (e : edge) ->
              if Bitset.mem members.(i) e.dst || Bitset.mem delta e.dst then account e)
            (out_edges g v);
          Array.iter (fun (e : edge) -> if Bitset.mem members.(i) e.src then account e) (in_edges g v))
        delta;
      (delta, !dcpu, !dmem)
    in
    (* Cut-weight delta of the same move, against the global cut counts. *)
    let cut_delta i j delta =
      let dcost = ref 0 in
      for ei = 0 to n_redges - 1 do
        let e = redge_arr.(ei) in
        let was = Bitset.mem cut.(i) ei in
        let now =
          (Bitset.mem members.(i) e.src || Bitset.mem delta e.src)
          && (not (e.dst = j)) && not (Bitset.mem in_absorb.(i) e.dst)
        in
        if was && (not now) && cut_count.(ei) = 1 then dcost := !dcost - e.weight
        else if now && (not was) && cut_count.(ei) = 0 then dcost := !dcost + e.weight
      done;
      !dcost
    in
    let apply_move i j =
      let delta, dcpu, dmem = move_delta i j in
      let cpu, mem = res.(i) in
      res.(i) <- (cpu +. dcpu, mem +. dmem);
      for ei = 0 to n_redges - 1 do
        let e = redge_arr.(ei) in
        let was = Bitset.mem cut.(i) ei in
        let now =
          (Bitset.mem members.(i) e.src || Bitset.mem delta e.src)
          && (not (e.dst = j)) && not (Bitset.mem in_absorb.(i) e.dst)
        in
        if was && not now then begin
          Bitset.unset cut.(i) ei;
          cut_count.(ei) <- cut_count.(ei) - 1
        end
        else if now && not was then begin
          Bitset.set cut.(i) ei;
          cut_count.(ei) <- cut_count.(ei) + 1
        end
      done;
      Bitset.union_into ~dst:members.(i) closures.(j);
      Bitset.set in_absorb.(i) j;
      absorb.(i) <- j :: absorb.(i)
    in
    let improved = ref true in
    while !improved do
      improved := false;
      let best_move = ref None in
      Array.iteri
        (fun i r ->
          if (node g r).mergeable then
            Array.iter
              (fun j ->
                if j <> r && (not (Bitset.mem in_absorb.(i) j)) && (node g j).mergeable then begin
                  (* Only consider absorbing j when some member calls j. *)
                  let has_edge =
                    Array.exists (fun (e : edge) -> Bitset.mem members.(i) e.src) (in_edges g j)
                  in
                  if has_edge then begin
                    let delta, dcpu, dmem = move_delta i j in
                    let cpu, mem = res.(i) in
                    if feasible lim (cpu +. dcpu, mem +. dmem) then begin
                      let c' = !cost + cut_delta i j delta in
                      match !best_move with
                      | Some (_, _, best_c) when c' >= best_c -> ()
                      | _ -> if c' < !cost then best_move := Some (i, j, c')
                    end
                  end
                end)
              root_arr)
        root_arr;
      match !best_move with
      | Some (i, j, c') ->
          apply_move i j;
          cost := c';
          improved := true
      | None -> ()
    done;
    let choices = List.mapi (fun i r -> (r, absorb.(i), members.(i))) roots in
    Some (build_solution g roots choices)
  end

(* --- Shared-incumbent parallel branch-and-bound --- *)

module Pool = Quilt_util.Pool

(* Counts entries into the bounded (incumbent-driven) search.  Tests use it
   to assert that QUILT_SEQUENTIAL=1 keeps every decision on the plain
   sequential [solve_exact] path. *)
let bounded_searches = Atomic.make 0
let bounded_search_count () = Atomic.get bounded_searches

let rec atomic_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Parallel exact search over prefix subtrees.

   The sequential search explores root 0's choices in ascending-own-weight
   order and within each, roots 1..k-1 depth-first; its result is the
   lexicographically first (in sorted-choice order) cost-optimal assignment.
   The parallel search reproduces exactly that assignment:

   - each subtree t (one choice for root 0) is explored independently with
     the {e same} strict local pruning the sequential search uses, so a
     subtree's recorded best is the lex-first optimum within the subtree;
   - the shared incumbent is only an {e additional, inclusive} bound
     ([acc <= incumbent]): since every published cost is the cost of a real
     assignment, the incumbent never drops below the global optimum C*, and
     the inclusive comparison keeps every prefix of a cost-C* assignment
     explorable no matter which worker published C* first;
   - the final scan selects the first subtree (in sorted order) achieving
     the minimum — first-finisher timing cannot leak into the result. *)
let bounded_search ?(domains = 1) ?deadline ~incumbent g (xi : exact_instance) =
  Atomic.incr bounded_searches;
  let { xi_k = k; xi_redges; xi_sorted = sorted_choices; _ } = xi in
  let weight_of_mask mask = mask_weight xi_redges mask in
  let subtrees = sorted_choices.(0) in
  let explore t (c0 : choice) =
    ignore t;
    (* Time-budget support (portfolio racing): cheap amortized clock check.
       Once expired, the worker stops expanding and reports its best so
       far.  Only ever active when the caller opted into a budget — the
       default path has no clock reads and stays deterministic. *)
    let expired = ref false in
    let tick = ref 0 in
    let within_budget () =
      match deadline with
      | None -> true
      | Some dl ->
          if !expired then false
          else begin
            incr tick;
            if !tick land 2047 = 0 && now_s () > dl then expired := true;
            not !expired
          end
    in
    let local_best = ref max_int in
    let best_pick = Array.make k None in
    let current = Array.make k None in
    current.(0) <- Some c0;
    let rec search idx acc_mask =
      let acc_weight = weight_of_mask acc_mask in
      if acc_weight < !local_best && acc_weight <= Atomic.get incumbent && within_budget () then begin
        if idx = k then begin
          local_best := acc_weight;
          Array.blit current 0 best_pick 0 k;
          atomic_min incumbent acc_weight
        end
        else
          Array.iter
            (fun c ->
              current.(idx) <- Some c;
              search (idx + 1) (acc_mask lor c.cut_mask))
            sorted_choices.(idx)
      end
    in
    search 1 c0.cut_mask;
    if !local_best = max_int then None else Some (!local_best, Array.copy best_pick)
  in
  let results = Pool.mapi_array ~domains explore subtrees in
  let best = ref None in
  Array.iter
    (fun r ->
      match (r, !best) with
      | Some (c, pick), Some (bc, _) -> if c < bc then best := Some (c, pick)
      | Some (c, pick), None -> best := Some (c, pick)
      | None, _ -> ())
    results;
  match !best with None -> None | Some (_, pick) -> solution_of_pick g xi pick

let solve_exact_par ?domains ?incumbent ?deadline ?(warm = true) (g : Callgraph.t)
    (lim : Types.limits) ~roots =
  let d =
    let requested = match domains with Some d -> d | None -> Pool.default_domains () in
    if Pool.sequential_forced () then 1 else max 1 requested
  in
  if Pool.sequential_forced () || (d <= 1 && incumbent = None && not warm) then solve_exact g lim ~roots
  else
    match prepare_exact ~prune:true g lim ~roots with
    | None -> None
    | Some xi ->
        let incumbent =
          match incumbent with Some a -> a | None -> Atomic.make max_int
        in
        if warm then (
          match solve_greedy g lim ~roots with
          | Some s -> atomic_min incumbent s.Types.cost
          | None -> ());
        bounded_search ~domains:d ?deadline ~incumbent g xi

(* Minimum instance size for which fanning the exact search out over
   domains beats the spawn cost; below it, the bounded search still runs
   (incumbent pruning is worthwhile at any size) but on the calling domain
   only. *)
let par_min_roots = 8

let solve ?(domains = 1) ?incumbent g lim ~roots =
  let roots' = normalize_roots g roots in
  let k = List.length roots' in
  let is_root = root_bitset g roots' in
  let n_redges =
    List.length (List.filter (fun (e : Callgraph.edge) -> Bitset.mem is_root e.Callgraph.dst) g.Callgraph.edges)
  in
  if k <= exact_max_roots && n_redges <= exact_max_root_edges then
    if Pool.sequential_forced () || (incumbent = None && (domains <= 1 || k < par_min_roots)) then
      solve_exact g lim ~roots
    else
      let domains = if k < par_min_roots then 1 else domains in
      solve_exact_par ~domains ?incumbent ~warm:false g lim ~roots
  else solve_greedy g lim ~roots
