(* Shared helpers for the benchmark harness. *)

module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Workflow = Quilt_apps.Workflow
module Config = Quilt_core.Config
module Quilt = Quilt_core.Quilt
module Pool = Quilt_util.Pool
module Json = Quilt_util.Json

(* [--fast] (set by main.ml before any section runs) shrinks run durations
   and sweep densities so the whole harness completes in well under a
   minute; default runs use the full parameters recorded in EXPERIMENTS.md. *)
let fast = ref false

let scale x = if !fast then x /. 4.0 else x

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n%!" title

let paper_note lines =
  List.iter (fun l -> Printf.printf "  paper: %s\n" l) lines;
  flush stdout

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median_time ?(reps = 3) f =
  let times = List.init reps (fun _ -> snd (time_it f)) in
  Quilt_util.Stats.median times

(* Latency run of one deployment setup: a single connection at low load,
   as Figure 6 — requests arrive with gaps, so idle containers pay
   Fission's re-specialization, which is part of what merging removes. *)
let latency_run engine ~entry ~gen_req ~duration_us =
  Loadgen.run_open_loop engine ~entry ~gen_req ~rate_rps:2.0 ~duration_us
    ~warmup_us:(Float.min (duration_us *. 0.25) 20_000_000.0)
    ()

(* Machine-readable timing log.  Each bench section that measures decision
   times dumps them here, keyed by section, as one top-level JSON object;
   re-running a section replaces only its own key. *)
let bench_json_file = "BENCH_decision.json"

let record_timings ?(file = bench_json_file) ~key entries =
  let existing =
    if Sys.file_exists file then
      try
        let ic = open_in_bin file in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        match Quilt_util.Json.of_string s with Json.Obj kvs -> kvs | _ -> []
      with _ -> []
    else []
  in
  let merged = List.filter (fun (k, _) -> k <> key) existing @ [ (key, Json.Obj entries) ] in
  let oc = open_out_bin file in
  output_string oc (Json.to_string (Json.Obj merged));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [timings recorded under %S in %s]\n%!" key file

let optimize_or_fail cfg wf =
  match Quilt.optimize cfg ~workflows:[ wf ] wf with
  | Ok t -> t
  | Error e -> failwith (Printf.sprintf "optimize %s: %s" wf.Workflow.wf_name e)

let pct_improvement ~baseline ~better = 100.0 *. (baseline -. better) /. baseline
