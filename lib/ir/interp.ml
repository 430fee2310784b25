module Mem = Abi.Mem
module Json = Quilt_util.Json

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

type stats = {
  mutable steps : int;
  mutable cpu_us : float;
  mutable io_us : float;
  mutable peak_mem_mb : float;
  mutable remote_sync : (string * string) list;
  mutable remote_async : (string * string) list;
  mutable curl_loaded : bool;
  mutable curl_loaded_eagerly : bool;
  calls : (string, int) Hashtbl.t;
  billing : (string, int) Hashtbl.t;
}

let new_stats () =
  {
    steps = 0;
    cpu_us = 0.0;
    io_us = 0.0;
    peak_mem_mb = 0.0;
    remote_sync = [];
    remote_async = [];
    curl_loaded = false;
    curl_loaded_eagerly = false;
    calls = Hashtbl.create 16;
    billing = Hashtbl.create 16;
  }

type host = { invoke : kind:[ `Sync | `Async ] -> name:string -> req:string -> string }

let null_host =
  { invoke = (fun ~kind:_ ~name ~req:_ -> trap "unexpected remote invocation of %s" name) }

let echo_host =
  {
    invoke =
      (fun ~kind:_ ~name ~req ->
        Json.to_string (Json.Obj [ ("echo", Json.String name); ("req", Json.String req) ]));
  }

type value = VInt of int64 | VFloat of float

let as_int = function VInt v -> v | VFloat _ -> trap "expected integer value"
let as_float = function VFloat f -> f | VInt _ -> trap "expected float value"

(* The per-request runtime core: everything a request's execution mutates
   except the control state (locals, fuel), which each engine represents
   its own way. *)
type rctx = {
  mem : Mem.t;
  stats : stats;
  host : host;
  mutable req_ptr : int64;  (* what quilt_get_req returns *)
  mutable response : string option;
  json_cache : (string, Json.t * bool) Hashtbl.t;
      (* Parse results keyed by string content (parsing is pure, values are
         immutable, so this is invisible to programs).  The bool marks
         strings known to be exactly [Json.to_string] of the value, which
         lets the json_set natives append a field textually instead of
         re-printing the whole object. *)
}

let make_rctx ?mem ~host () =
  {
    mem = (match mem with Some m -> m | None -> Mem.create ());
    stats = new_stats ();
    host;
    req_ptr = 0L;
    response = None;
    json_cache = Hashtbl.create 32;
  }

(* --- Native (intrinsic) implementations --- *)

(* Interned intrinsic identity: the QVM interns each callee name once at
   lowering time and dispatches on the variant. *)

type shared_op =
  | Malloc
  | Free
  | Memcpy
  | Strlen
  | Get_req
  | Send_res
  | Sync_inv
  | Async_inv
  | Async_wait
  | Future_ready
  | Curl_global_init
  | Curl_init_once
  | Burn_cpu
  | Sleep_io
  | Use_mem
  | Bill

type lang_op =
  | Str_from_c
  | Str_to_c
  | Concat
  | Itoa
  | Atoi
  | Str_eq
  | Json_get_str
  | Json_get_int
  | Json_arr_len
  | Json_arr_get
  | Json_empty
  | Json_set_str
  | Json_set_int
  | Json_set_raw

type intrinsic =
  | Sh of shared_op
  | Ln of Abi.str_abi * lang_op
  | Unknown_native of string  (** traps "unknown native ..." when executed *)
  | Bad_native of string  (** traps "bad native call .../argc" when executed *)

let shared_op_of_name = function
  | "quilt_malloc" -> Some Malloc
  | "quilt_free" -> Some Free
  | "quilt_memcpy" -> Some Memcpy
  | "quilt_strlen" -> Some Strlen
  | "quilt_get_req" -> Some Get_req
  | "quilt_send_res" -> Some Send_res
  | "quilt_sync_inv" -> Some Sync_inv
  | "quilt_async_inv" -> Some Async_inv
  | "quilt_async_wait" -> Some Async_wait
  | "quilt_future_ready" -> Some Future_ready
  | "quilt_curl_global_init" -> Some Curl_global_init
  | "quilt_curl_init_once" -> Some Curl_init_once
  | "quilt_burn_cpu" -> Some Burn_cpu
  | "quilt_sleep_io" -> Some Sleep_io
  | "quilt_use_mem" -> Some Use_mem
  | "quilt_bill" -> Some Bill
  | _ -> None

let shared_op_name = function
  | Malloc -> "quilt_malloc"
  | Free -> "quilt_free"
  | Memcpy -> "quilt_memcpy"
  | Strlen -> "quilt_strlen"
  | Get_req -> "quilt_get_req"
  | Send_res -> "quilt_send_res"
  | Sync_inv -> "quilt_sync_inv"
  | Async_inv -> "quilt_async_inv"
  | Async_wait -> "quilt_async_wait"
  | Future_ready -> "quilt_future_ready"
  | Curl_global_init -> "quilt_curl_global_init"
  | Curl_init_once -> "quilt_curl_init_once"
  | Burn_cpu -> "quilt_burn_cpu"
  | Sleep_io -> "quilt_sleep_io"
  | Use_mem -> "quilt_use_mem"
  | Bill -> "quilt_bill"

let lang_op_of_suffix = function
  | "str_from_c" -> Some Str_from_c
  | "str_to_c" -> Some Str_to_c
  | "concat" -> Some Concat
  | "itoa" -> Some Itoa
  | "atoi" -> Some Atoi
  | "str_eq" -> Some Str_eq
  | "json_get_str" -> Some Json_get_str
  | "json_get_int" -> Some Json_get_int
  | "json_arr_len" -> Some Json_arr_len
  | "json_arr_get" -> Some Json_arr_get
  | "json_empty" -> Some Json_empty
  | "json_set_str" -> Some Json_set_str
  | "json_set_int" -> Some Json_set_int
  | "json_set_raw" -> Some Json_set_raw
  | _ -> None

let lang_op_suffix = function
  | Str_from_c -> "str_from_c"
  | Str_to_c -> "str_to_c"
  | Concat -> "concat"
  | Itoa -> "itoa"
  | Atoi -> "atoi"
  | Str_eq -> "str_eq"
  | Json_get_str -> "json_get_str"
  | Json_get_int -> "json_get_int"
  | Json_arr_len -> "json_arr_len"
  | Json_arr_get -> "json_arr_get"
  | Json_empty -> "json_empty"
  | Json_set_str -> "json_set_str"
  | Json_set_int -> "json_set_int"
  | Json_set_raw -> "json_set_raw"

let intern_intrinsic name =
  match String.index_opt name '_' with
  | Some i when String.sub name 0 i <> "quilt" -> (
      let lang = String.sub name 0 i in
      let suffix = String.sub name (i + 1) (String.length name - i - 1) in
      if not (List.mem lang Intrinsics.languages) then Unknown_native name
      else
        match lang_op_of_suffix suffix with
        | Some op -> Ln (Abi.abi_of_lang lang, op)
        | None -> Bad_native name)
  | Some _ | None -> (
      match shared_op_of_name name with Some op -> Sh op | None -> Bad_native name)

(* Failures are never cached: a lenient miss must not shadow the strict
   parser's trap for the same string. *)
let json_parse rc str =
  match Hashtbl.find_opt rc.json_cache str with
  | Some (v, _) -> v
  | None -> (
      match Json.of_string str with
      | v ->
          Hashtbl.replace rc.json_cache str (v, false);
          v
      | exception Json.Parse_error msg -> trap "json parse error: %s" msg)

(* Field reads are lenient (see Quilt_lang.Eval): unparsable input reads as
   null; writes on non-objects still trap. *)
let json_parse_lenient rc str =
  match Hashtbl.find_opt rc.json_cache str with
  | Some (v, _) -> v
  | None -> (
      match Json.of_string str with
      | v ->
          Hashtbl.replace rc.json_cache str (v, false);
          v
      | exception Json.Parse_error _ -> Json.Null)

(* Shared tail of the json_set_* natives: [obj]/[sobj] is the parsed input
   object and its text, [k] the key, [v] the field's new value.  When the
   input text is canonical and the key is fresh, the output is produced by
   splicing the printed field before the closing brace — byte-identical to
   re-printing the whole object, without the O(object) cost. *)
let json_set_field rc sobj fields canonical k v =
  let fresh = not (List.mem_assoc k fields) in
  let out_value = Json.Obj ((if fresh then fields else List.remove_assoc k fields) @ [ (k, v) ]) in
  let out =
    if canonical && fresh then begin
      let field = Json.to_string (Json.Obj [ (k, v) ]) in
      let n = String.length sobj in
      let buf = Buffer.create (n + String.length field) in
      Buffer.add_substring buf sobj 0 (n - 1);
      if fields <> [] then Buffer.add_char buf ',';
      Buffer.add_substring buf field 1 (String.length field - 1);
      Buffer.contents buf
    end
    else Json.to_string out_value
  in
  Hashtbl.replace rc.json_cache out (out_value, true);
  out

let json_member_string obj key =
  match Json.member key obj with
  | Json.String s -> s
  | Json.Int i -> string_of_int i
  | Json.Null -> ""
  | other -> Json.to_string other

let exec_lang rc (abi : Abi.str_abi) op (args : value list) : value option =
  let mem = rc.mem in
  let str v = abi.Abi.read_str mem (as_int v) in
  let ret_str s = Some (VInt (abi.Abi.alloc_str mem s)) in
  match op, args with
  | Str_from_c, [ p ] -> ret_str (Mem.read_cstr mem (as_int p))
  | Str_to_c, [ h ] -> Some (VInt (Mem.write_cstr mem (str h)))
  | Concat, [ a; b ] -> ret_str (str a ^ str b)
  | Itoa, [ n ] -> ret_str (Int64.to_string (as_int n))
  | Atoi, [ s ] -> (
      let text = String.trim (str s) in
      match Int64.of_string_opt text with
      | Some v -> Some (VInt v)
      | None -> Some (VInt 0L))
  | Str_eq, [ a; b ] -> Some (VInt (if str a = str b then 1L else 0L))
  | Json_get_str, [ obj; key ] ->
      ret_str (json_member_string (json_parse_lenient rc (str obj)) (str key))
  | Json_get_int, [ obj; key ] -> (
      match Json.to_int_opt (Json.member (str key) (json_parse_lenient rc (str obj))) with
      | Some i -> Some (VInt (Int64.of_int i))
      | None -> Some (VInt 0L))
  | Json_arr_len, [ obj; key ] ->
      let items = Json.to_list (Json.member (str key) (json_parse_lenient rc (str obj))) in
      Some (VInt (Int64.of_int (List.length items)))
  | Json_arr_get, [ obj; key; idx ] -> (
      let items = Json.to_list (Json.member (str key) (json_parse_lenient rc (str obj))) in
      let i = Int64.to_int (as_int idx) in
      match List.nth_opt items i with
      | Some item -> ret_str (Json.to_string item)
      | None -> trap "json_arr_get: index %d out of bounds (%d items)" i (List.length items))
  | Json_empty, [] ->
      Hashtbl.replace rc.json_cache "{}" (Json.Obj [], true);
      ret_str "{}"
  | Json_set_str, [ obj; key; v ] -> (
      let sobj = str obj in
      let canonical, parsed =
        match Hashtbl.find_opt rc.json_cache sobj with
        | Some (pv, c) -> (c, pv)
        | None -> (false, json_parse rc sobj)
      in
      match parsed with
      | Json.Obj fields ->
          let sv = Json.String (str v) in
          let k = str key in
          ret_str (json_set_field rc sobj fields canonical k sv)
      | _ -> trap "json_set_str: not an object")
  | Json_set_int, [ obj; key; v ] -> (
      let sobj = str obj in
      let canonical, parsed =
        match Hashtbl.find_opt rc.json_cache sobj with
        | Some (pv, c) -> (c, pv)
        | None -> (false, json_parse rc sobj)
      in
      match parsed with
      | Json.Obj fields ->
          let iv = Json.Int (Int64.to_int (as_int v)) in
          let k = str key in
          ret_str (json_set_field rc sobj fields canonical k iv)
      | _ -> trap "json_set_int: not an object")
  | Json_set_raw, [ obj; key; v ] -> (
      let sobj = str obj in
      let canonical, parsed =
        match Hashtbl.find_opt rc.json_cache sobj with
        | Some (pv, c) -> (c, pv)
        | None -> (false, json_parse rc sobj)
      in
      match parsed with
      | Json.Obj fields ->
          let vj = json_parse rc (str v) in
          let k = str key in
          ret_str (json_set_field rc sobj fields canonical k vj)
      | _ -> trap "json_set_raw: not an object")
  | _, _ ->
      trap "bad native call %s_%s/%d" abi.Abi.abi_lang (lang_op_suffix op) (List.length args)

let exec_shared rc op (args : value list) : value option =
  let mem = rc.mem in
  match op, args with
  | Malloc, [ n ] -> Some (VInt (Mem.alloc mem (Int64.to_int (as_int n))))
  | Free, [ _ ] -> None
  | Memcpy, [ dst; src; n ] ->
      let n = Int64.to_int (as_int n) in
      for i = 0 to n - 1 do
        Mem.store_byte mem (Mem.offset (as_int dst) i) (Mem.load_byte mem (Mem.offset (as_int src) i))
      done;
      None
  | Strlen, [ p ] -> Some (VInt (Int64.of_int (String.length (Mem.read_cstr mem (as_int p)))))
  | Get_req, [] ->
      if rc.req_ptr = 0L then trap "quilt_get_req outside a request";
      Some (VInt rc.req_ptr)
  | Send_res, [ p ] ->
      rc.response <- Some (Mem.read_cstr mem (as_int p));
      None
  | Sync_inv, [ namep; reqp ] ->
      if not rc.stats.curl_loaded then trap "quilt_sync_inv before HTTP stack initialisation";
      let callee = Mem.read_cstr mem (as_int namep) in
      let req = Mem.read_cstr mem (as_int reqp) in
      rc.stats.remote_sync <- (callee, req) :: rc.stats.remote_sync;
      let res = rc.host.invoke ~kind:`Sync ~name:callee ~req in
      Some (VInt (Mem.write_cstr mem res))
  | Async_inv, [ namep; reqp ] ->
      if not rc.stats.curl_loaded then trap "quilt_async_inv before HTTP stack initialisation";
      let callee = Mem.read_cstr mem (as_int namep) in
      let req = Mem.read_cstr mem (as_int reqp) in
      rc.stats.remote_async <- (callee, req) :: rc.stats.remote_async;
      let res = rc.host.invoke ~kind:`Async ~name:callee ~req in
      let fut = Mem.alloc mem 8 in
      Mem.store_i64 mem fut (Mem.write_cstr mem res);
      Some (VInt fut)
  | Future_ready, [ p ] ->
      let fut = Mem.alloc mem 8 in
      Mem.store_i64 mem fut (as_int p);
      Some (VInt fut)
  | Async_wait, [ f ] -> Some (VInt (Mem.load_i64 mem (as_int f)))
  | Curl_global_init, [] ->
      rc.stats.curl_loaded <- true;
      rc.stats.curl_loaded_eagerly <- true;
      None
  | Curl_init_once, [] ->
      rc.stats.curl_loaded <- true;
      None
  | Burn_cpu, [ us ] ->
      rc.stats.cpu_us <- rc.stats.cpu_us +. Int64.to_float (as_int us);
      None
  | Sleep_io, [ us ] ->
      rc.stats.io_us <- rc.stats.io_us +. Int64.to_float (as_int us);
      None
  | Use_mem, [ mb ] ->
      rc.stats.peak_mem_mb <- Float.max rc.stats.peak_mem_mb (Int64.to_float (as_int mb));
      None
  | Bill, [ p ] ->
      let fn = Mem.read_cstr mem (as_int p) in
      Hashtbl.replace rc.stats.billing fn
        (1 + Option.value ~default:0 (Hashtbl.find_opt rc.stats.billing fn));
      None
  | _, _ -> trap "bad native call %s/%d" (shared_op_name op) (List.length args)

let exec_intrinsic rc (i : intrinsic) args =
  match i with
  | Sh op -> exec_shared rc op args
  | Ln (abi, op) -> exec_lang rc abi op args
  | Unknown_native name -> trap "unknown native %s" name
  | Bad_native name -> trap "bad native call %s/%d" name (List.length args)

(* --- Arithmetic and call accounting --- *)

let exec_binop op ty a b =
  match ty with
  | Ir.F64 ->
      let x = as_float a and y = as_float b in
      let r =
        match op with
        | Ir.Add -> x +. y
        | Ir.Sub -> x -. y
        | Ir.Mul -> x *. y
        | Ir.Sdiv -> x /. y
        | Ir.Srem | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Lshr -> trap "bad float binop"
      in
      VFloat r
  | Ir.I1 | Ir.I8 | Ir.I32 | Ir.I64 | Ir.Ptr | Ir.Void ->
      let x = as_int a and y = as_int b in
      let r =
        match op with
        | Ir.Add -> Int64.add x y
        | Ir.Sub -> Int64.sub x y
        | Ir.Mul -> Int64.mul x y
        | Ir.Sdiv -> if y = 0L then trap "division by zero" else Int64.div x y
        | Ir.Srem -> if y = 0L then trap "division by zero" else Int64.rem x y
        | Ir.And -> Int64.logand x y
        | Ir.Or -> Int64.logor x y
        | Ir.Xor -> Int64.logxor x y
        | Ir.Shl -> Int64.shift_left x (Int64.to_int y land 63)
        | Ir.Lshr -> Int64.shift_right_logical x (Int64.to_int y land 63)
      in
      VInt r

let exec_icmp cmp a b =
  let x = as_int a and y = as_int b in
  let r =
    match cmp with
    | Ir.Ceq -> x = y
    | Ir.Cne -> x <> y
    | Ir.Cslt -> x < y
    | Ir.Csle -> x <= y
    | Ir.Csgt -> x > y
    | Ir.Csge -> x >= y
  in
  VInt (if r then 1L else 0L)

let bump_call_count stats callee =
  Hashtbl.replace stats.calls callee
    (1 + Option.value ~default:0 (Hashtbl.find_opt stats.calls callee))
