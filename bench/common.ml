(* Shared helpers for the benchmark harness. *)

module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Workflow = Quilt_apps.Workflow
module Config = Quilt_core.Config
module Quilt = Quilt_core.Quilt
module Pool = Quilt_util.Pool
module Json = Quilt_util.Json

(* [--smoke] (set by main.ml before any section runs) shrinks run durations,
   sweep densities and each section's own sizes so the whole harness
   completes in well under a minute, and leaves the committed BENCH files
   alone; default runs use the full parameters recorded in EXPERIMENTS.md. *)
let smoke = ref false

let scale x = if !smoke then x /. 4.0 else x

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

(* Every BENCH file is written here, and only by a full-scale run: a smoke
   run writes nothing, so it can never replace committed numbers. *)
let write_json file json =
  if !smoke then Printf.printf "  [smoke run: %s not written]\n%!" file
  else begin
    let oc = open_out_bin file in
    output_string oc (Json.to_string json);
    output_char oc '\n';
    close_out oc;
    Printf.printf "  [recorded in %s]\n%!" file
  end

(* Machine-readable timing log: one top-level JSON object per file, keyed
   by section; re-running a section replaces only its own key.  A file that
   exists but is not a JSON object is an error, not an empty log: rewriting
   it would drop every other section's key. *)
let record_timings ?(file = "BENCH_decision.json") ~key entries =
  let existing =
    if not (Sys.file_exists file) then []
    else
      match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
      | Json.Obj kvs -> kvs
      | _ -> failwith (file ^ ": not a JSON object")
      | exception (Sys_error e | Json.Parse_error e) -> failwith (Printf.sprintf "%s: %s" file e)
  in
  let others = List.filter (fun (k, _) -> k <> key) existing in
  write_json file (Json.Obj (others @ [ (key, Json.Obj entries) ]))

(* Bechamel's OLS estimate of each test's cost per run, printed as a row
   and recorded under [key] in BENCH_decision.json, in input order.  The
   [uncached] tests run first, with the merge cache disabled, so they time
   compiles rather than content-addressed cache hits. *)
let bechamel ~key ?(uncached = []) tests =
  let open Bechamel in
  let open Toolkit in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second (if !smoke then 0.25 else 1.0)) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let row test =
    let raw =
      Benchmark.all cfg Instance.[ monotonic_clock ]
        (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ])
    in
    Hashtbl.fold
      (fun name est rows ->
        match Analyze.OLS.estimates est with
        | Some [ ns ] ->
            Printf.printf "  %-42s %12.2f us/run\n%!" name (ns /. 1000.0);
            (name, Json.Float (ns /. 1000.0)) :: rows
        | Some _ | None ->
            Printf.printf "  %-42s (no estimate)\n%!" name;
            rows)
      (Analyze.all ols Instance.monotonic_clock raw)
      []
  in
  let uncached_rows =
    Quilt_merge.Pipeline.set_cache_enabled false;
    Fun.protect
      ~finally:(fun () -> Quilt_merge.Pipeline.set_cache_enabled true)
      (fun () -> List.concat_map row uncached)
  in
  record_timings ~key (uncached_rows @ List.concat_map row tests)

let optimize_or_fail cfg wf =
  match Quilt.optimize cfg ~workflows:[ wf ] wf with
  | Ok t -> t
  | Error e -> failwith (Printf.sprintf "optimize %s: %s" wf.Workflow.wf_name e)

let pct_improvement ~baseline ~better = 100.0 *. (baseline -. better) /. baseline
