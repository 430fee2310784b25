(** Dead-code elimination / program debloating (pipeline steps ⑧–⑩).

    Models [-Wl,-gc-sections] plus LLVM-level global DCE: functions and
    globals not reachable from the given roots are removed.  After merging,
    this strips the parts of each language runtime the merged function no
    longer uses — a large share of Appendix E's size reduction. *)

val run : roots:string list -> Ir.modul -> Ir.modul
(** Keeps the root functions, everything transitively referenced from them
    (call targets, global references), and nothing else.  Unknown root names
    are ignored.  Returns [m] itself when everything is reachable. *)

val unused_symbols : roots:string list -> Ir.modul -> string list
(** What {!run} would remove; useful for reporting. *)
