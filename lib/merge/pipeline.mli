(** The compilation pipeline of Figure 5: compile every member of a
    subgraph, merge them two at a time in BFS order from the root, and
    produce a single deployable module.

    Per merge round (§5.4): the callee's module is compiled (step ①) unless
    its code is already present, symbols are renamed to avoid collisions
    (② RenameFunc), modules are linked with language-runtime deduplication
    (③ llvm-link), the callee handler is converted to a local function and
    all matching invocation sites are rewritten (④ MergeFunc), possibly as
    §5.6 conditional invocations.  After the last round the HTTP-stack
    initialisation is delayed (⑦ DelayHTTP) and unreferenced functions,
    runtimes and globals are stripped (⑧–⑩ llc / Implib.so / gc-sections,
    modelled by global DCE).

    The global DCE ({!Quilt_ir.Pass_dce}, rooted at the entry handler)
    runs three times: as soon as the merge rounds end, so DelayHTTP and
    every later stage see only code the entry handler can reach; after
    shim inlining, which leaves the caller2c/c2callee shims dead; and
    last, after the liveness DCE.  Every stage in between rewrites
    functions one at a time and only ever drops references, so the early
    strips change no deployed module.  A stage that changes nothing
    returns its input module physically, and the stage verifier skips it.
    Every stage's output is verified. *)

type report = {
  rounds : (string * int) list;
      (** Per merged callee: number of call sites rewritten. *)
  removed_symbols : int;
      (** Functions and globals the DCE stages stripped, counted from the
          module the merge rounds left. *)
  languages : string list;  (** Distinct source languages in the result. *)
  merged_module : Quilt_ir.Ir.modul;
  entry : string;  (** The entry handler symbol, [entry_handler root]. *)
}

val merge_group :
  lookup:(string -> Quilt_lang.Ast.fn) ->
  members:string list ->
  root:string ->
  ?guards:((string * string) * int) list ->
  ?billing:bool ->
  ?optimize:bool ->
  unit ->
  report
(** [members] are service names (the root included); [lookup] resolves each
    to its source.  The call graph is derived from the ASTs; only edges
    between members are merged.  [guards] lists the §5.6 conditional
    edges: for [((caller, callee), alpha)], the first [alpha] calls from
    [caller] to [callee] per request stay local and later ones fall back to
    remote invocation.  The first entry for a pair wins and pairs that are
    not both members are ignored; every other member edge is always local
    (the default, [[]], makes every member edge local).
    [optimize] (default [true]) runs the analysis-driven optimization
    passes — {!Quilt_ir.Pass_shiminline}, {!Quilt_ir.Pass_sccp},
    {!Quilt_ir.Pass_jumpthread} — after scalar simplification; [false] is
    the before-arm of [bench/main.exe ir]'s analysis section.  Dead
    instructions are removed by {!Quilt_ir.Pass_livedce} on every merge,
    either way.
    Every stage's output is checked by the strict verifier, through one
    {!Quilt_ir.Verify.stage_checker} per compile (diagnostics equal to
    {!Quilt_ir.Verify.run} with [~strict:true], re-checking only what the
    stage changed); an [Error]-severity finding fails the merge
    immediately, naming the stage.
    Raises [Failure] if a member is unreachable from the root through
    member-internal edges (the subgraph would not be a connected rDAG). *)

val merge_group_uncached :
  ?on_stage:(stage:string -> Quilt_ir.Ir.modul -> unit) ->
  lookup:(string -> Quilt_lang.Ast.fn) ->
  members:string list ->
  root:string ->
  ?guards:((string * string) * int) list ->
  ?billing:bool ->
  ?optimize:bool ->
  unit ->
  report
(** {!merge_group} without the merge cache: always compiles.  [on_stage]
    (default: ignore) sees each stage's module, under the stage name the
    verifier reports, just before that module is verified. *)

val entry_handler : string -> string
(** Symbol of the merged module's entry point (the root's handler). *)

(** {1 Content-addressed merge cache}

    {!merge_group} memoises compiled groups process-wide, keyed by the
    content of its inputs: each member's AST digest, the root, the
    {!canonical_guards} and the billing and optimize flags.  Guard lists
    that differ only in order, duplicates or non-member pairs share a key.
    Drift-triggered re-merges and multi-seed bench fan-outs with
    unchanged inputs hit the cache; any source or guard change misses by
    construction, so there is no explicit invalidation.  The table is
    mutex-guarded (bench fan-outs merge from a Domain pool). *)

val canonical_guards :
  members:string list -> ((string * string) * int) list -> ((string * string) * int) list
(** The guards a merge of [members] obeys: member pairs only, the first
    entry per pair, sorted by pair. *)

val set_cache_enabled : bool -> unit
(** Default: enabled.  Disabling makes {!merge_group} recompile every call
    (the before-arm of [bench/main.exe engine], and a debugging aid). *)

val cache_stats : unit -> int * int
(** [(hits, misses)] since start or the last {!reset_cache}. *)

val reset_cache : unit -> unit
(** Drops every cached report and zeroes {!cache_stats}. *)

val validate :
  host:Quilt_ir.Interp.host ->
  report ->
  req:string ->
  (string * Quilt_ir.Interp.stats, string) result
(** Executes the merged module's entry handler on one request on the
    {!Quilt_ir.Vm} compiled engine. *)
