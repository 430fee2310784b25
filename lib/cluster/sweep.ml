let rec combinations items size =
  if size = 0 then [ [] ]
  else
    match items with
    | [] -> []
    | x :: rest ->
        let with_x = List.map (fun c -> x :: c) (combinations rest (size - 1)) in
        let without_x = combinations rest size in
        with_x @ without_x

(* One incumbent is threaded through every in-cap exact search (greedy
   dispatched root sets ignore it).  It only prunes root sets that cannot
   strictly improve on a cost already found, so the best solution, the per-k
   improvement flag and hence the patience-based stopping point are those of
   the sweep without it. *)
let solve_over_pool ?k_max (g : Quilt_dag.Callgraph.t) (lim : Types.limits) ~pool =
  let k_max = match k_max with Some k -> k | None -> List.length pool + 1 in
  let incumbent = ref max_int in
  let best = ref None in
  let stale = ref 0 in
  let k = ref 1 in
  let continue = ref true in
  while !continue && !k <= k_max do
    let improved = ref false in
    List.iter
      (fun extra ->
        let roots = g.Quilt_dag.Callgraph.root :: extra in
        if Closure.root_set_feasible g lim ~roots then
          match Closure.solve ~incumbent g lim ~roots with
          | None -> ()
          | Some sol -> (
              match !best with
              | Some b when sol.Types.cost >= b.Types.cost -> ()
              | _ ->
                  best := Some sol;
                  improved := true))
      (combinations pool (!k - 1));
    if !improved then stale := 0
    else begin
      incr stale;
      (* Only give up early once a feasible grouping exists. *)
      if !best <> None && !stale >= 2 then continue := false
    end;
    incr k
  done;
  !best
