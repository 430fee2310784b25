(** The QVM: executes {!Compile.prog}, the slot-resolved form of a module.

    The only QIR engine: merge validation, the CLI, the examples, the
    benches and the tests' semantic checks all run on it.  It executes on
    the native runtime in {!Interp}, with every name resolved once at
    compile time.  The contract is exact observational equivalence with
    the tree-walking oracle in [test/treewalk.ml] — same responses, same
    trap messages (fuel, division by zero, wild pointers, unbound locals,
    ...), same {!Interp.stats} — enforced by the differential qcheck
    harness in [test_fuzz.ml] and the unit parity suite in
    [test_vm.ml]. *)

val run_handler :
  ?fuel:int ->
  host:Interp.host ->
  Ir.modul ->
  fname:string ->
  req:string ->
  (string * Interp.stats, string) result
(** Compiles then runs a handler-convention function ([void f()] that
    calls [quilt_get_req] / [quilt_send_res]).  Returns the response sent,
    or an error describing the trap.  [fuel] bounds executed instructions
    (default 20 million). *)

val run_local :
  ?fuel:int ->
  host:Interp.host ->
  Ir.modul ->
  fname:string ->
  req:string ->
  (string * Interp.stats, string) result
(** Compiles then runs a merged local-convention function ([ptr f(ptr)]
    over C strings). *)

val run_handler_prog :
  ?fuel:int ->
  host:Interp.host ->
  Compile.prog ->
  fname:string ->
  req:string ->
  (string * Interp.stats, string) result
(** Runs an already-compiled program; lets callers (the bench harness, a
    warm control plane) amortize {!Compile.compile} over many requests.

    Runs of one program reuse its guest heap: each restores the globals
    image into the program's spare heap ({!field:Compile.prog.spare}) and
    hands it back when it ends, trap or not, so a warm run allocates no
    arena.  Reuse is unobservable — a run returns exactly what it returns on
    a freshly compiled program.  Any number of domains may run one program
    at once, its first activation included, and [host.invoke] may re-enter
    it: a run that finds the spare taken starts from an empty heap. *)
