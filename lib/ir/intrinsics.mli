(** Names and signatures of the host-provided (native) runtime.

    These are the symbols a real toolchain would resolve from libc, libcurl
    and each language's runtime library.  The interpreter implements them in
    OCaml; the verifier treats them as always-available externals.

    Shared natives: memory ([quilt_malloc]), the platform I/O and invocation
    API ([quilt_get_req], [quilt_send_res], [quilt_sync_inv],
    [quilt_async_inv], [quilt_async_wait], [quilt_future_ready]), the
    HTTP-stack initialisation that {!Pass_delayhttp} relocates
    ([quilt_curl_global_init], [quilt_curl_init_once]) and the work-model
    hooks ([quilt_burn_cpu], [quilt_sleep_io], [quilt_use_mem]), and the
    per-function billing tick ([quilt_bill], see {!Pass_billing}).

    Per-language natives (prefix [<lang>_]): string-ABI conversions
    ([<lang>_str_from_c], [<lang>_str_to_c]) and the string/JSON runtime
    ([_concat], [_itoa], [_atoi], [_str_eq], [_json_*]). *)

val languages : string list
(** The five supported frontends: ["c"; "cpp"; "rust"; "go"; "swift"]. *)

val mem : string -> bool
(** Whether the name is a native symbol (shared or of any language),
    O(1). *)

val signature : string -> (Ir.ty list * Ir.ty) option
