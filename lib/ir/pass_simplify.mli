(** Scalar simplification: constant folding and copy propagation.

    Part of the pipeline's "variety of optimizations" (§1.1): after merging,
    the IR carries identity pointer adjustments (the [gep ptr %x, 0] aliases
    that {!Pass_mergefunc.localize_handler} substitutes for [quilt_get_req])
    and foldable arithmetic; this pass cleans them up, shrinking the binary
    the size model sees and the work the interpreter does.

    Semantics-preserving by construction: only pure instructions are folded
    (never calls, stores, or loads), and a fold that would trap at run time
    (division by zero) is left in place.  Instructions whose results end up
    unused stay; {!Pass_livedce} removes them. *)

val run : Ir.modul -> Ir.modul
(** Iterates folding per function to a fixpoint. *)
