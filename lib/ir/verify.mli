(** Module well-formedness checks, run after every pipeline stage.

    Two tiers.  The base tier catches what merging most often breaks:
    duplicate symbols, calls whose signature disagrees with the target,
    branches to missing labels, uses of undefined locals, references to
    missing globals, and return-type inconsistencies.  The strict tier
    ([run ~strict:true]) layers the {!Analysis}-backed checks on top: SSA
    dominance of every use, operand/result typing for every instruction
    class, phi-incoming-edges-match-CFG-predecessors, entry-block-has-no-
    phis, plus unreachable-block and dead-store lints (warnings).

    Every diagnostic carries a stable code, a severity, the function and —
    when known — the block it points at, so callers can filter, count, or
    render them ([quilt lint --json] does all three).

    One walk per function builds the tables both tiers share: the CFG's
    label → block index and a local → id table with per-id definition
    block, index and type.  Operands are visited in place and messages are
    formatted only for emitted diagnostics.  On the bundled workflows'
    merged modules ([dune exec bench/main.exe -- ir], row
    [verify:bundled-merges]) a strict run allocates 46 minor words per
    instruction, a deterministic count; the row's wall time, with its
    spread, is in [BENCH_ir.json]. *)

type severity = Error | Warning

type diagnostic = {
  code : string;  (** Stable: [Vnnn] base, [Snnn] strict, [Wnnn] lint, [Mnnn] interference. *)
  severity : severity;
  where : string;  (** Function name, or ["module"] for module-level findings. *)
  block : string option;  (** Block label when the finding is inside one. *)
  message : string;
}

val to_string : diagnostic -> string
(** [code severity [fn:block] message] — the line format of [quilt lint]. *)

val run : ?strict:bool -> Ir.modul -> diagnostic list
(** Empty when the module is well-formed (base tier) and, with
    [~strict:true], well-typed and properly dominated.  Calls to functions
    with no declaration or definition in the module are reported unless
    {!Intrinsics.mem} holds for their name (the host runtime).  Strict-tier
    warnings (unreachable blocks, dead stores) never appear without
    [~strict:true]. *)

val interference : Ir.modul -> diagnostic list
(** The merge-interference analyzer: findings specific to modules produced
    by fusing several members.  [M001] (error) — one name bound as both a
    function and a global, so [@name] references are ambiguous; [M002]
    (warning) — a mutable global stored to by two or more distinct members
    (member = the [svc] of a [svc__handler] / [svc__local] symbol);
    [M003] (error) — a call across a language boundary whose argument or
    return types disagree with the callee, i.e. a broken ABI shim. *)

val check_exn : Ir.modul -> unit
(** Raises [Failure] with a readable summary if the base tier of {!run}
    reports any [Error]-severity diagnostic ([Warning]s never raise). *)

(** {1 Incremental verification}

    The merge pipeline verifies the whole module after every stage, yet a
    stage rewrites only a few functions.  An incremental verifier still
    checks every function of every module it is given, but it remembers,
    per function name, the function it verified last time, its diagnostics,
    and the names its base check {e probed} in the module: every callee,
    whose [(param types, ret type)] or absence decides V005–V008, and
    every [@name] reference, whose existence as a global or function
    decides V004.  A function's diagnostics are reused when it is [==] to
    the remembered one and none of its probed names resolves differently
    than in the previous module (a function of that name appeared, vanished
    or changed signature, or a global of that name appeared or vanished).
    A function that is only structurally equal is verified again: the
    passes return every function they leave unchanged physically, so
    physical identity is the whole test.  The reuse is exact, not a
    heuristic: the strict tier reads nothing but the function, and the
    base tier reads nothing but the function and those probes, so
    re-running either would produce the same list.  Module-level findings (V012) are recomputed on
    every call.  The memo holds at most one version per function name and
    lives in the returned closure; nothing is shared across closures or
    domains. *)

val incremental : strict:bool -> unit -> Ir.modul -> diagnostic list
(** [incremental ~strict ()] returns a verifier whose every result equals
    [run ~strict m] for the module [m] it is given, reusing work from its
    previous call.  {!run} is [incremental ~strict ()] applied once. *)

val stage_checker : strict:bool -> unit -> stage:string -> Ir.modul -> unit
(** A {!check_exn} over one {!incremental} verifier, for checking the
    successive stages of one compilation: raises [Failure] naming [stage]
    if that stage's module has an [Error]-severity diagnostic.  A module
    [==] to the last one checked is not walked again: it has that check's
    diagnostics. *)
