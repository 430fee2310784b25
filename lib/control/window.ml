module Engine = Quilt_platform.Engine
module Trace = Quilt_tracing.Trace
module Builder = Quilt_tracing.Builder
module Workflow = Quilt_apps.Workflow

type t = { engine : Engine.t; wf : Workflow.t; win_us : float; mutable floor : float }

let create engine ~workflow ~window_us = { engine; wf = workflow; win_us = window_us; floor = 0.0 }

(* Extra history kept beyond the window, as a fraction of it. *)
let slack = 0.25

let start_of t =
  let now = Engine.now t.engine in
  Float.max (now -. t.win_us) t.floor

let advance t =
  let now = Engine.now t.engine in
  let keep_from = now -. (t.win_us *. (1.0 +. slack)) in
  if keep_from > 0.0 then Trace.evict_before (Engine.tracing t.engine) keep_from

let set_floor t f = t.floor <- Float.max t.floor f

let graph t =
  let st = Engine.tracing t.engine in
  Builder.build st ~entry:t.wf.Workflow.entry ~window_start:(start_of t) ()
  |> Result.map (fun g ->
         Quilt_core.Quilt.with_optin t.wf (Builder.known_calls ~code_edges:t.wf.Workflow.code_edges g))

let invocations_in_window t =
  Trace.count_spans (Engine.tracing t.engine) ~since:(start_of t) (fun (s : Trace.span) ->
      s.Trace.caller = None && s.Trace.callee = t.wf.Workflow.entry)
