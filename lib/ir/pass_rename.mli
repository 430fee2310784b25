(** The RenameFunc pass (pipeline step ②).

    Before linking a callee module into a caller, symbols that would collide
    are renamed: "functions in the callee that may have the same signature
    as those in the caller ... cannot reside in the same address space"
    (§5.2).  Runtime symbols shared by functions of the same language are
    {e not} renamed — the linker deduplicates those instead. *)

val avoid_collisions : against:Ir.modul -> keep:(string -> bool) -> Ir.modul -> Ir.modul
(** Renames every symbol of the module that also exists in [against] (and is
    not protected by [keep]) by appending a fresh numeric suffix.  Typical
    [keep]: {!Intrinsics.mem} plus the language-runtime symbols the linker
    deduplicates. *)
