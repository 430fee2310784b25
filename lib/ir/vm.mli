(** The QVM: executes {!Compile.prog}, the slot-resolved form of a module.

    Drop-in equivalent of {!Interp.run_handler} / {!Interp.run_local} with
    the per-step name resolution paid once at compile time.  The contract
    is exact observational equivalence with the tree-walker — same
    responses, same trap messages (fuel, division by zero, wild pointers,
    unbound locals, ...), same {!Interp.stats} — enforced by the
    differential qcheck harness in [test_fuzz.ml] and the unit parity
    suite in [test_vm.ml].  It is the only engine production code runs;
    the tree-walker is the oracle those tests call directly. *)

val run_handler :
  ?fuel:int ->
  host:Interp.host ->
  Ir.modul ->
  fname:string ->
  req:string ->
  (string * Interp.stats, string) result
(** Compiles then runs a handler-convention function.  [fuel] defaults to
    20 million instructions, as in {!Interp.run_handler}. *)

val run_local :
  ?fuel:int ->
  host:Interp.host ->
  Ir.modul ->
  fname:string ->
  req:string ->
  (string * Interp.stats, string) result

val run_handler_prog :
  ?fuel:int ->
  host:Interp.host ->
  Compile.prog ->
  fname:string ->
  req:string ->
  (string * Interp.stats, string) result
(** Runs an already-compiled program; lets callers (the bench harness, a
    warm control plane) amortize {!Compile.compile} over many requests. *)

val run_local_prog :
  ?fuel:int ->
  host:Interp.host ->
  Compile.prog ->
  fname:string ->
  req:string ->
  (string * Interp.stats, string) result

