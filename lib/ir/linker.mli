(** Module linking — the [llvm-link] analogue (pipeline steps ③ and ⑥).

    Linking merges globals and functions of two modules.  A declaration
    merges with a definition of the same name (signatures must agree).  Two
    {e definitions} of the same symbol are an error unless [dedup_identical]
    is set and their bodies print identically — that mode implements Quilt's
    library deduplication: two functions of the same language each carry a
    copy of their language runtime, and linking keeps one. *)

exception Link_error of string

val link : ?dedup_identical:bool -> Ir.modul -> Ir.modul -> Ir.modul
(** [link a b] merges [b] into [a]; [a]'s module name wins.  Raises
    {!Link_error} on symbol clashes (see above) or signature mismatches. *)
