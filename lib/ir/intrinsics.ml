let languages = [ "c"; "cpp"; "rust"; "go"; "swift" ]

let shared =
  [
    ("quilt_malloc", [ Ir.I64 ], Ir.Ptr);
    ("quilt_free", [ Ir.Ptr ], Ir.Void);
    ("quilt_memcpy", [ Ir.Ptr; Ir.Ptr; Ir.I64 ], Ir.Void);
    ("quilt_strlen", [ Ir.Ptr ], Ir.I64);
    ("quilt_get_req", [], Ir.Ptr);
    ("quilt_send_res", [ Ir.Ptr ], Ir.Void);
    ("quilt_sync_inv", [ Ir.Ptr; Ir.Ptr ], Ir.Ptr);
    ("quilt_async_inv", [ Ir.Ptr; Ir.Ptr ], Ir.Ptr);
    ("quilt_async_wait", [ Ir.Ptr ], Ir.Ptr);
    ("quilt_future_ready", [ Ir.Ptr ], Ir.Ptr);
    ("quilt_curl_global_init", [], Ir.Void);
    ("quilt_curl_init_once", [], Ir.Void);
    ("quilt_burn_cpu", [ Ir.I64 ], Ir.Void);
    ("quilt_sleep_io", [ Ir.I64 ], Ir.Void);
    ("quilt_use_mem", [ Ir.I64 ], Ir.Void);
    ("quilt_bill", [ Ir.Ptr ], Ir.Void);
  ]

let per_language_suffixes =
  [
    ("str_from_c", [ Ir.Ptr ], Ir.Ptr);
    ("str_to_c", [ Ir.Ptr ], Ir.Ptr);
    ("concat", [ Ir.Ptr; Ir.Ptr ], Ir.Ptr);
    ("itoa", [ Ir.I64 ], Ir.Ptr);
    ("atoi", [ Ir.Ptr ], Ir.I64);
    ("str_eq", [ Ir.Ptr; Ir.Ptr ], Ir.I64);
    ("json_get_str", [ Ir.Ptr; Ir.Ptr ], Ir.Ptr);
    ("json_get_int", [ Ir.Ptr; Ir.Ptr ], Ir.I64);
    ("json_arr_len", [ Ir.Ptr; Ir.Ptr ], Ir.I64);
    ("json_arr_get", [ Ir.Ptr; Ir.Ptr; Ir.I64 ], Ir.Ptr);
    ("json_empty", [], Ir.Ptr);
    ("json_set_str", [ Ir.Ptr; Ir.Ptr; Ir.Ptr ], Ir.Ptr);
    ("json_set_int", [ Ir.Ptr; Ir.Ptr; Ir.I64 ], Ir.Ptr);
    ("json_set_raw", [ Ir.Ptr; Ir.Ptr; Ir.Ptr ], Ir.Ptr);
  ]

let per_language lang =
  List.map (fun (suffix, args, ret) -> (lang ^ "_" ^ suffix, args, ret)) per_language_suffixes

let all () = shared @ List.concat_map per_language languages

let table =
  lazy
    (let t = Hashtbl.create 128 in
     List.iter (fun (name, args, ret) -> Hashtbl.replace t name (args, ret)) (all ());
     t)

let mem name = Hashtbl.mem (Lazy.force table) name

let signature name = Hashtbl.find_opt (Lazy.force table) name
