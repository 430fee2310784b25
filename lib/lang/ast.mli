(** Source AST for serverless functions.

    The paper's functions are real Rust/C/C++/Go/Swift programs; here one
    small expression language stands in for all five, and each frontend
    lowers it with that language's name mangling, string ABI, and runtime
    library.  The AST has exactly the shapes serverless handlers exhibit:
    JSON field access and construction, string manipulation, integer
    arithmetic and control flow, synchronous/asynchronous invocations of
    other functions, and explicit work markers ({!constructor-Burn},
    {!constructor-Sleep_io}, {!constructor-Use_mem}) that model compute
    time, I/O waits (e.g. the hardcoded-database sleeps of Experiment 2)
    and peak memory.

    Three value types exist: strings, 64-bit integers, and futures. *)

type arith = Add | Sub | Mul | Div | Mod
type cmp = Lt | Le | Gt | Ge | Eq | Ne

type expr =
  | Str_lit of string
  | Int_lit of int
  | Var of string
  | Let of string * expr * expr
  | Seq of expr * expr  (** Evaluate both, keep the second. *)
  | Concat of expr * expr
  | Itoa of expr
  | Atoi of expr
  | Str_eq of expr * expr  (** 1 when equal, else 0. *)
  | Arith of arith * expr * expr
  | Cmp of cmp * expr * expr  (** 1 when true, else 0. *)
  | If of expr * expr * expr  (** Condition is an integer; nonzero = true. *)
  | For_acc of { var : string; from_ : expr; to_ : expr; acc : string; init : expr; body : expr }
      (** [for var in [from_, to_) { acc <- body }]; evaluates to the final
          accumulator.  [body] sees [var] and [acc]. *)
  | Json_get_str of expr * string
  | Json_get_int of expr * string
  | Json_arr_len of expr * string
  | Json_arr_get of expr * string * expr
  | Json_empty
  | Json_set_str of expr * string * expr
  | Json_set_int of expr * string * expr
  | Json_set_raw of expr * string * expr
  | Invoke of string * expr  (** Synchronous invocation of a service. *)
  | Invoke_async of string * expr  (** Returns a future. *)
  | Wait of expr  (** Joins a future, yielding its response string. *)
  | Fan_out_all of { callee : string; count : expr }
      (** §5.6's data-dependent fan-out: invoke [callee] asynchronously
          [count] times with payloads [{"data": "<i>"}], keeping all the
          futures, then join them in order and concatenate the responses'
          ["data"] fields.  Lowered to a future array in IR. *)
  | Burn of expr  (** Consume N µs of CPU. *)
  | Sleep_io of expr  (** Wait N µs without CPU. *)
  | Use_mem of expr  (** Touch N MB for the request's lifetime. *)

type vty = Tstr | Tint | Tfut

type fn = {
  fn_name : string;  (** Platform handle, e.g. ["compose-post"]. *)
  fn_lang : string;  (** One of {!Quilt_ir.Intrinsics.languages}. *)
  mergeable : bool;  (** The developer's opt-in bit (§1.1). *)
  body : expr;  (** Type [Tstr]; the variable ["req"] (a [Tstr]) is bound. *)
}

exception Type_error of string

val check_fn : fn -> unit
(** Checks the body has type [Tstr] under [req : Tstr] and that the
    language is supported. *)

val invocations : expr -> (string * [ `Sync | `Async ]) list
(** Static call sites (service, kind), in evaluation order, duplicates
    preserved. *)

val handler_symbol : string -> string
(** IR symbol for a service's handler: dashes become underscores, suffix
    [__handler]. *)

val local_symbol : string -> string
(** IR symbol MergeFunc uses for the localized version ([__local]). *)

val mangle : string -> string
(** Dashes to underscores; shared by symbol and global naming. *)
