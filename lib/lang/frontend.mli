(** Per-language frontends: lower an {!Ast.fn} to a QIR module (pipeline
    step ①, the rustc/clang/gollvm/swiftc analogue).

    All five languages share the AST but differ in what the lowering
    produces: symbol mangling, the string ABI used by every runtime call
    ([<lang>_*] natives), and the SDK runtime module (the [<lang>_sync_inv]
    family) that is linked into the function — the analogue of compiling
    libstd to bitcode (§5.2).  The handler follows the canonical
    serverless convention that {!Quilt_ir.Pass_mergefunc} rewrites. *)

val compile : Ast.fn -> Quilt_ir.Ir.modul
(** Type-checks the function ({!Ast.check_fn}), lowers its handler and
    interned string globals, and links the language's SDK runtime module:
    a self-contained "bitcode object" for the function, verified.  Raises
    [Invalid_argument] on unknown languages. *)
