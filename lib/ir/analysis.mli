(** Reusable static analyses over QIR functions.

    Everything downstream of the parser that needs to reason about control
    or data flow goes through this module: the strict verifier tier
    ({!Verify.run} with [~strict:true]), the analysis-driven optimization
    passes ({!Pass_sccp}, {!Pass_jumpthread}, {!Pass_livedce}), and the
    [quilt lint] merge-interference checks.

    QIR is unordered SSA: a local may be used textually before its
    definition (phi-carried loop values), so the analyses here are the
    only way to ask order-sensitive questions — does this definition
    dominate that use, is this block reachable, is this value live out of
    that block. *)

module SS : Set.S with type elt = string

(** {1 Control-flow graph} *)

type cfg = {
  func : Ir.func;
  blocks : Ir.block array;  (** Source order; index 0 is the entry block. *)
  succs : int list array;
  preds : int list array;  (** Deduplicated: a two-way [Cbr] to one target is one edge. *)
  reachable : bool array;  (** From the entry block along [succs]. *)
  index : (string, int) Hashtbl.t;
      (** Label → block index; the first of duplicate labels wins, as in the
          interpreter.  Read-only. *)
}

val cfg_of_func : Ir.func -> cfg
(** Branches to unknown labels are ignored here (the base verifier reports
    them); a declaration yields an empty graph. *)

(** {1 Dominators (Cooper–Harvey–Kennedy)} *)

val dominators : cfg -> int array
(** [idom]: immediate dominator of every reachable block, [idom.(0) = 0]
    for the entry, [-1] for unreachable blocks. *)

val dominates : idom:int array -> int -> int -> bool
(** [dominates ~idom a b]: every path from entry to [b] passes through
    [a] (reflexive).  False whenever [b] is unreachable. *)

(** {1 Definitions and uses} *)

val instr_dst : Ir.instr -> string option

val iter_operands : (Ir.value -> unit) -> Ir.instr -> unit
(** Visits the instruction's operands in source order, allocating
    nothing: call arguments, phi incoming values, and so on. *)

val term_operands : Ir.terminator -> Ir.value list

(** {1 Type inference} *)

val local_types : Ir.func -> (string, Ir.ty) Hashtbl.t
(** Params plus every instruction destination, via {!instr_dst_ty}. *)

(** {1 Backward liveness} *)

type liveness = { live_in : SS.t array; live_out : SS.t array }

val liveness : cfg -> liveness
(** Per-block fixpoint.  Phi sources count as uses at the end of the
    matching predecessor (not in the phi's own block); phi destinations
    are definitions at the top of their block. *)

(** {1 Slot analysis (allocas)} *)

val write_only_slots : Ir.func -> SS.t
(** Alloca destinations whose only uses are as a [Store] pointer: the
    slot is never loaded and never escapes (no call argument, gep base,
    store {e source}, phi, select or return use), so every store to it is
    dead.  Powers the W002 lint and the dead-store elimination in
    {!Pass_livedce}. *)
