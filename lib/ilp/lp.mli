(** Linear / integer-linear program representation.

    Quilt's subgraph-construction phase (§4.2, Appendix B) is a 0/1 ILP.  The
    paper solves it with Gurobi; this module plus {!Simplex} and {!Bb} are the
    sealed-environment substitute.  Problems are always minimization with
    variables bounded in [\[lower.(i), upper.(i)\]]. *)

type op = Le | Ge | Eq

type constr = {
  coeffs : (int * float) list;  (** Sparse row: (variable index, coefficient). *)
  op : op;
  rhs : float;
}

type problem = {
  n_vars : int;
  objective : float array;  (** Minimize [objective · x]. *)
  constraints : constr list;
  lower : float array;
  upper : float array;
  integer : bool array;  (** Which variables must be integral (0/1 in Quilt). *)
  integral_objective : bool;
      (** True when every objective coefficient is an integer for all integer
          assignments; enables ceiling-based bound tightening in {!Bb}. *)
}

val make :
  n_vars:int ->
  objective:float array ->
  constraints:constr list ->
  unit ->
  problem
(** Builds a pure 0/1 problem: every variable is binary and integral, and
    so is the objective.  Raises [Invalid_argument] on dimension mismatch. *)

val make_lp :
  n_vars:int ->
  objective:float array ->
  constraints:constr list ->
  lower:float array ->
  upper:float array ->
  problem
(** A continuous LP (no integrality). *)

val eval_objective : problem -> float array -> float

val check_feasible : problem -> float array -> eps:float -> bool
(** True when [x] satisfies all constraints and bounds within [eps]. *)
