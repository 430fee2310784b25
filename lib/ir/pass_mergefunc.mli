(** The MergeFunc pass (pipeline step ④): converts serverless invocations
    into local calls.

    Three transformations, following §5.2–§5.3 and Appendix D:

    - {!localize_handler} rewrites a handler-convention function
      ([void f()] reading its input with [quilt_get_req] and answering with
      [quilt_send_res]) into a local function [ptr f(ptr)] over its
      language's native string type — the paper's [text_service(req)]
      example.

    - {!rewrite_call_sites} finds every [<lang>_sync_inv] / [<lang>_async_inv]
      call whose first argument is a string constant naming the merged
      callee and replaces it with a call to the caller2c shim.  The shims
      (caller2c in the caller's language, c2callee in the callee's) are
      generated on demand and bridge the two string ABIs through C strings,
      exactly as Appendix D's Figures 12–13.

    - With [mode = Conditional alpha] the replacement is guarded by a
      per-(caller, callee) counter (§5.6): the first [alpha] calls per
      request go local, the rest fall back to the original remote
      invocation.  The counter is reset at the entry of the merged
      function's handler. *)

type mode = Unconditional | Conditional of int

val localize_handler : Ir.modul -> handler:string -> local_name:string -> Ir.modul
(** Adds the localized clone under [local_name]; the original handler is
    left in place (dead-code elimination removes it once call sites are
    rewritten).  Raises [Failure] when the handler is not in canonical
    form. *)

val rewrite_call_sites :
  Ir.modul ->
  ids:int ref ->
  service:string ->
  local_name:string ->
  callee_lang:string ->
  mode:(caller:string -> mode) ->
  reset_in:string option ->
  Ir.modul * int
(** Rewrites all matching call sites in every defined function; returns the
    module and the number of sites rewritten.  [ids] numbers the fresh
    locals and labels of the rewritten sites; give each merge its own
    counter so its text does not depend on earlier merges.  [service] is the callee's
    platform handle (the string the caller passes to sync_inv).  [mode] is
    consulted per containing function, so different call-graph edges can
    carry different profiled α values.  [reset_in], when set, names the
    handler at whose entry conditional-mode counters are reset (once per
    request). *)
