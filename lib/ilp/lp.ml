type op = Le | Ge | Eq

type constr = { coeffs : (int * float) list; op : op; rhs : float }

type problem = {
  n_vars : int;
  objective : float array;
  constraints : constr list;
  lower : float array;
  upper : float array;
  integer : bool array;
  integral_objective : bool;
}

let validate p =
  if Array.length p.objective <> p.n_vars then invalid_arg "Lp: objective dimension mismatch";
  if Array.length p.lower <> p.n_vars || Array.length p.upper <> p.n_vars then
    invalid_arg "Lp: bound dimension mismatch";
  if Array.length p.integer <> p.n_vars then invalid_arg "Lp: integrality dimension mismatch";
  List.iter
    (fun c ->
      List.iter
        (fun (i, _) -> if i < 0 || i >= p.n_vars then invalid_arg "Lp: coefficient index out of range")
        c.coeffs)
    p.constraints;
  p

let make ~n_vars ~objective ~constraints () =
  validate
    {
      n_vars;
      objective;
      constraints;
      lower = Array.make n_vars 0.0;
      upper = Array.make n_vars 1.0;
      integer = Array.make n_vars true;
      integral_objective = true;
    }

let make_lp ~n_vars ~objective ~constraints ~lower ~upper =
  validate
    {
      n_vars;
      objective;
      constraints;
      lower;
      upper;
      integer = Array.make n_vars false;
      integral_objective = false;
    }

let eval_objective p x =
  let acc = ref 0.0 in
  for i = 0 to p.n_vars - 1 do
    acc := !acc +. (p.objective.(i) *. x.(i))
  done;
  !acc

let eval_row coeffs x = List.fold_left (fun acc (i, c) -> acc +. (c *. x.(i))) 0.0 coeffs

let check_feasible p x ~eps =
  let ok = ref true in
  for i = 0 to p.n_vars - 1 do
    if x.(i) < p.lower.(i) -. eps || x.(i) > p.upper.(i) +. eps then ok := false
  done;
  List.iter
    (fun c ->
      let v = eval_row c.coeffs x in
      match c.op with
      | Le -> if v > c.rhs +. eps then ok := false
      | Ge -> if v < c.rhs -. eps then ok := false
      | Eq -> if Float.abs (v -. c.rhs) > eps then ok := false)
    p.constraints;
  !ok
