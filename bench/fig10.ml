(* Figure 10: data-dependent fan-out (§5.6).  The callee is memory-heavy:
   at most 8 instances fit in the merged container.  Clients send num in
   [1,15].  Systems: baseline (all remote), Quilt without conditional
   invocations (crashes past the profiled edge), and Quilt with conditional
   invocations (local up to α = 8, remote beyond). *)

open Common
module Special = Quilt_apps.Special
module Engine = Quilt_platform.Engine
module Stats = Quilt_util.Stats

let callee_mem_mb = 14 (* 8 x 14 MB + base fits in 128 MB; 9 does not *)
let alpha = 8

let merged_spec ~guards =
  {
    Engine.service = "fan-out";
    vcpus = 2.0;
    mem_limit_mb = 128.0;
    base_mem_mb = 8.0;
    image_mb = 30.0;
    max_scale = 20;
    eager_http = false;
    mode = Engine.Merged { members = [ "fan-out"; "fan-out-worker" ]; guards };
  }

type system = Baseline | Unguarded | Guarded

let make_engine wf system =
  let engine = Quilt.fresh_platform ~workflows:[ wf ] () in
  (match system with
  | Baseline -> ()
  | Unguarded -> Engine.deploy engine (merged_spec ~guards:[])
  | Guarded -> Engine.deploy engine (merged_spec ~guards:[ (("fan-out", "fan-out-worker"), alpha) ]));
  engine

let measure engine ~num ~samples =
  let lats = ref [] and fails = ref 0 in
  let req = Printf.sprintf "{\"num\":%d}" num in
  (* Warm. *)
  Engine.submit engine ~entry:"fan-out" ~req ~on_done:(fun ~latency_us:_ ~ok:_ -> ());
  Engine.drain engine;
  for _ = 1 to samples do
    Engine.submit engine ~entry:"fan-out" ~req ~on_done:(fun ~latency_us ~ok ->
        if ok then lats := (latency_us /. 1000.0) :: !lats else incr fails);
    Engine.drain engine
  done;
  (Stats.mean !lats, !fails)

let run () =
  section "Figure 10: data-dependent fan-out with and without conditional invocations";
  let wf = Special.fan_out ~callee_mem_mb () in
  let samples = if !smoke then 6 else 25 in
  Printf.printf "  %-5s %16s %22s %20s\n" "num" "baseline(mean)" "quilt-unconditional" "quilt-conditional";
  let nums = if !smoke then [ 2; 8; 12 ] else [ 1; 2; 4; 6; 8; 9; 10; 12; 14; 15 ] in
  List.iter
    (fun num ->
      let b_engine = make_engine wf Baseline in
      let b_mean, b_fail = measure b_engine ~num ~samples in
      let u_engine = make_engine wf Unguarded in
      let u_mean, u_fail = measure u_engine ~num ~samples in
      let g_engine = make_engine wf Guarded in
      let g_mean, g_fail = measure g_engine ~num ~samples in
      let show mean fails =
        if fails > 0 && mean = 0.0 then Printf.sprintf "CRASH (%d/%d)" fails samples
        else if fails > 0 then Printf.sprintf "%.1fms (%d crash)" mean fails
        else Printf.sprintf "%.1fms" mean
      in
      Printf.printf "  %-5d %16s %22s %20s\n" num (show b_mean b_fail) (show u_mean u_fail)
        (show g_mean g_fail))
    nums;
  paper_note
    [
      "below the profiled edge (num <= 8) Quilt serves every call locally and beats baseline;";
      "without conditional invocations, requests with num > 8 crash the merged function;";
      "conditional invocations prevent all crashes and still remove ~60% of remote calls above the edge.";
    ]
