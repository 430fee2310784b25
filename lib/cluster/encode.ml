module Callgraph = Quilt_dag.Callgraph
module Lp = Quilt_ilp.Lp
module Bb = Quilt_ilp.Bb

type encoding = {
  problem : Lp.problem;
  roots : int list;
  x_index : int -> int;
  y_index : int -> int -> int;
}

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
      (roots @ Closure.forced_roots g)
  in
  g.Callgraph.root :: List.filter (fun r -> r <> g.Callgraph.root) uniq

let encode (g : Callgraph.t) (lim : Types.limits) ~roots =
  let roots = normalize_roots g roots in
  let k = List.length roots in
  let n = Callgraph.n_nodes g in
  let edges = Array.of_list g.Callgraph.edges in
  let n_edges = Array.length edges in
  let is_root = Array.make n false in
  List.iter (fun r -> is_root.(r) <- true) roots;
  let root_arr = Array.of_list roots in
  (* Variable layout: x (edges) | y (node-major) | z (edge-major). *)
  let x_index e = e in
  let y_index i rpos = n_edges + (i * k) + rpos in
  let z_index e rpos = n_edges + (n * k) + (e * k) + rpos in
  let n_vars = n_edges + (n * k) + (n_edges * k) in
  let objective = Array.make n_vars 0.0 in
  Array.iteri (fun e edge -> objective.(x_index e) <- float_of_int edge.Callgraph.weight) edges;
  let constraints = ref [] in
  let add c = constraints := c :: !constraints in
  (* 0. Opt-in bit (§1.1): a non-mergeable node belongs only to its own
     subgraph, and its subgraph holds nothing else. *)
  Array.iter
    (fun (nd : Callgraph.node) ->
      if not nd.Callgraph.mergeable then begin
        let i = nd.Callgraph.id in
        Array.iteri
          (fun rpos r ->
            if r <> i then add { Lp.coeffs = [ (y_index i rpos, 1.0) ]; op = Lp.Eq; rhs = 0.0 }
            else
              for j = 0 to n - 1 do
                if j <> i then add { Lp.coeffs = [ (y_index j rpos, 1.0) ]; op = Lp.Eq; rhs = 0.0 }
              done)
          root_arr
      end)
    g.Callgraph.nodes;
  (* 1. Root inclusion: y_{r,r} = 1. *)
  Array.iteri (fun rpos r -> add { Lp.coeffs = [ (y_index r rpos, 1.0) ]; op = Lp.Eq; rhs = 1.0 }) root_arr;
  (* 2. Node coverage: Σ_r y_{i,r} >= 1. *)
  for i = 0 to n - 1 do
    let coeffs = List.init k (fun rpos -> (y_index i rpos, 1.0)) in
    add { Lp.coeffs; op = Lp.Ge; rhs = 1.0 }
  done;
  (* 3. Connectivity: y_{j,r} <= Σ_{(i,j) in E} y_{i,r}  for j <> r. *)
  Array.iteri
    (fun rpos r ->
      for j = 0 to n - 1 do
        if j <> r then begin
          let preds = Callgraph.preds g j in
          let coeffs =
            (y_index j rpos, 1.0)
            :: List.map (fun e -> (y_index e.Callgraph.src rpos, -1.0)) preds
          in
          add { Lp.coeffs; op = Lp.Le; rhs = 0.0 }
        end
      done)
    root_arr;
  (* 4. Cross-edge definition: x_{i,j} >= y_{i,r} - y_{j,r}. *)
  Array.iteri
    (fun e edge ->
      for rpos = 0 to k - 1 do
        add
          {
            Lp.coeffs =
              [
                (y_index edge.Callgraph.src rpos, 1.0);
                (y_index edge.Callgraph.dst rpos, -1.0);
                (x_index e, -1.0);
              ];
            op = Lp.Le;
            rhs = 0.0;
          }
      done)
    edges;
  (* 5. Cross-edge root rule: y_{i,r} <= y_{j,r} when j is not a root. *)
  Array.iter
    (fun edge ->
      if not is_root.(edge.Callgraph.dst) then
        for rpos = 0 to k - 1 do
          add
            {
              Lp.coeffs =
                [ (y_index edge.Callgraph.src rpos, 1.0); (y_index edge.Callgraph.dst rpos, -1.0) ];
              op = Lp.Le;
              rhs = 0.0;
            }
        done)
    edges;
  (* 6 & 7. Capacity constraints per root. *)
  Array.iteri
    (fun rpos r ->
      let rnode = Callgraph.node g r in
      let mem_coeffs = ref [] and cpu_coeffs = ref [] in
      Array.iteri
        (fun e edge ->
          let a = float_of_int (Callgraph.alpha g edge) in
          let callee = Callgraph.node g edge.Callgraph.dst in
          let mem_coeff =
            match edge.Callgraph.kind with
            | Callgraph.Sync -> callee.Callgraph.mem_mb
            | Callgraph.Async -> callee.Callgraph.mem_mb +. ((a -. 1.0) *. callee.Callgraph.mem_mb)
          in
          mem_coeffs := (z_index e rpos, mem_coeff) :: !mem_coeffs;
          cpu_coeffs := (z_index e rpos, a *. callee.Callgraph.cpu) :: !cpu_coeffs)
        edges;
      add { Lp.coeffs = !mem_coeffs; op = Lp.Le; rhs = lim.Types.max_mem_mb -. rnode.Callgraph.mem_mb };
      add { Lp.coeffs = !cpu_coeffs; op = Lp.Le; rhs = lim.Types.max_cpu -. rnode.Callgraph.cpu })
    root_arr;
  (* 8. z linearization: z <= y_i, z <= y_j, z >= y_i + y_j - 1. *)
  Array.iteri
    (fun e edge ->
      for rpos = 0 to k - 1 do
        let zi = z_index e rpos in
        add
          { Lp.coeffs = [ (zi, 1.0); (y_index edge.Callgraph.src rpos, -1.0) ]; op = Lp.Le; rhs = 0.0 };
        add
          { Lp.coeffs = [ (zi, 1.0); (y_index edge.Callgraph.dst rpos, -1.0) ]; op = Lp.Le; rhs = 0.0 };
        add
          {
            Lp.coeffs =
              [
                (zi, 1.0);
                (y_index edge.Callgraph.src rpos, -1.0);
                (y_index edge.Callgraph.dst rpos, -1.0);
              ];
            op = Lp.Ge;
            rhs = -1.0;
          }
      done)
    edges;
  let problem = Lp.make ~n_vars ~objective ~constraints:(List.rev !constraints) () in
  { problem; roots; x_index; y_index }

let solve_ilp (g : Callgraph.t) (lim : Types.limits) ~roots =
  let enc = encode g lim ~roots in
  let out = Bb.solve enc.problem in
  match out.Bb.status with
  | `Infeasible | `NodeLimit -> None
  | `Optimal | `Feasible ->
      let n = Callgraph.n_nodes g in
      let x = out.Bb.solution in
      let subgraphs =
        List.mapi
          (fun rpos r ->
            let members = Array.init n (fun i -> x.(enc.y_index i rpos) > 0.5) in
            let absorbed = ref [] in
            List.iter (fun r' -> if members.(r') then absorbed := r' :: !absorbed) enc.roots;
            let cpu, mem = Closure.resources g ~members ~root:r in
            { Types.root = r; absorbed = !absorbed; members; cpu; mem_mb = mem })
          enc.roots
      in
      let cost = int_of_float (Float.round out.Bb.objective) in
      Some { Types.roots = enc.roots; subgraphs; cost }
