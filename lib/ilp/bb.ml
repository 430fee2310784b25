module Heap = Quilt_util.Heap

type outcome = {
  status : [ `Optimal | `Feasible | `Infeasible | `NodeLimit ];
  objective : float;
  solution : float array;
  nodes_explored : int;
}

let int_eps = 1e-6

let most_fractional (p : Lp.problem) x =
  let best = ref (-1) in
  let best_frac = ref 0.0 in
  for i = 0 to p.n_vars - 1 do
    if p.integer.(i) then begin
      let f = x.(i) -. Float.round x.(i) in
      let dist = Float.abs f in
      if dist > int_eps && dist > !best_frac then begin
        best_frac := dist;
        best := i
      end
    end
  done;
  !best

let round_solution (p : Lp.problem) x =
  Array.mapi (fun i v -> if p.integer.(i) then Float.round v else v) x

let node_limit = 200_000

let solve (p : Lp.problem) =
  let queue : (float array * float array) Heap.t = Heap.create () in
  (* Nodes are (lower bounds, upper bounds) boxes keyed by their LP bound. *)
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  let nodes = ref 0 in
  let push_node lower upper =
    let sub = { p with Lp.lower; upper } in
    match Simplex.solve sub with
    | Simplex.Infeasible -> ()
    | Simplex.Unbounded -> failwith "Bb.solve: unbounded relaxation on a bounded 0/1 problem"
    | Simplex.Optimal (bound, x) ->
        let bound = if p.integral_objective then Float.ceil (bound -. 1e-6) else bound in
        if bound < !incumbent_obj -. 1e-9 then begin
          match most_fractional p x with
          | -1 ->
              (* Integral solution: new incumbent. *)
              let x = round_solution p x in
              let obj = Lp.eval_objective p x in
              if obj < !incumbent_obj -. 1e-9 then begin
                incumbent := Some x;
                incumbent_obj := obj
              end
          | _ -> Heap.push queue bound (lower, upper)
        end
  in
  push_node (Array.copy p.lower) (Array.copy p.upper);
  let hit_limit = ref false in
  let stop = ref false in
  while (not !stop) && not (Heap.is_empty queue) do
    incr nodes;
    if !nodes > node_limit then begin
      stop := true;
      hit_limit := true
    end
    else begin
      match Heap.pop queue with
      | None -> stop := true
      | Some (bound, (lower, upper)) ->
          let proven_optimal =
            match !incumbent with
            | None -> false
            | Some _ -> bound >= !incumbent_obj -. 1e-9
          in
          (* Best-first: the popped bound is the global lower bound, so a
             bound at the incumbent ends the search. *)
          if proven_optimal then stop := true
          else begin
            (* Re-solve to get the fractional solution for branching. *)
            let sub = { p with Lp.lower; upper } in
            match Simplex.solve sub with
            | Simplex.Infeasible -> ()
            | Simplex.Unbounded -> failwith "Bb.solve: unbounded relaxation"
            | Simplex.Optimal (_, x) -> (
                match most_fractional p x with
                | -1 ->
                    let x = round_solution p x in
                    let obj = Lp.eval_objective p x in
                    if obj < !incumbent_obj -. 1e-9 then begin
                      incumbent := Some x;
                      incumbent_obj := obj
                    end
                | branch_var ->
                    let lo1 = Array.copy lower and up1 = Array.copy upper in
                    up1.(branch_var) <- Float.of_int (int_of_float (Float.floor x.(branch_var)));
                    push_node lo1 up1;
                    let lo2 = Array.copy lower and up2 = Array.copy upper in
                    lo2.(branch_var) <- Float.of_int (int_of_float (Float.ceil x.(branch_var)));
                    push_node lo2 up2)
          end
    end
  done;
  match !incumbent with
  | Some x ->
      let status = if !hit_limit then `Feasible else `Optimal in
      { status; objective = !incumbent_obj; solution = x; nodes_explored = !nodes }
  | None ->
      let status = if !hit_limit then `NodeLimit else `Infeasible in
      { status; objective = infinity; solution = [||]; nodes_explored = !nodes }
