(** Branch-and-bound 0/1 ILP solver (§4.3).

    Best-first search on LP-relaxation bounds.  When the problem declares an
    integral objective, node bounds are tightened to their ceiling, which
    prunes aggressively on Quilt's integer-weight objectives. *)

type outcome = {
  status : [ `Optimal | `Feasible | `Infeasible | `NodeLimit ];
  objective : float;
  solution : float array;  (** Meaningful for [`Optimal] and [`Feasible]. *)
  nodes_explored : int;
}

val solve : Lp.problem -> outcome
(** [solve p] minimizes, proving optimality within 200_000 nodes.
    [`Feasible] means an incumbent exists but the node limit stopped the
    proof; [`NodeLimit] means no incumbent was found before the limit. *)
