(** Textual rendering of QIR modules (LLVM-flavoured assembly).

    [Parser.parse_module (to_string m)] round-trips for every well-formed
    module; the property is in the test suite. *)

val func_to_string : Ir.func -> string
val to_string : Ir.modul -> string
