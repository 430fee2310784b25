(** Liveness-based instruction-level dead-code elimination (§5).

    The pipeline's one instruction-level DCE; {!Pass_dce} strips whole
    unreferenced symbols.  This pass marks liveness backward from the
    observable roots (calls, loads, stores, terminator operands) through
    the def-use graph and drops every pure instruction left unmarked, plus
    stores into never-read slots (and then the slots themselves).  Marking
    backward, rather than dropping instructions whose destination has no
    textual use, also retires self-sustaining clusters such as a
    phi-carried loop recurrence whose value never escapes.

    The pure classes are binop, icmp, gep, select, phi and alloca; calls,
    loads and stores (other than the dead stores above) always stay.  An
    unused binop counts as pure even when it would trap (an [sdiv] by
    zero), so such a trap goes with it.  Expects a module that passes
    {!Verify.run}. *)

val run : Ir.modul -> Ir.modul
