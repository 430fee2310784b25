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

(* --- The timing sections' one measurement path --- *)

(* Wall time of one operation in seconds, over [reps] timed runs. *)
type wall = { reps : int; median : float; min : float; max : float }

(* The one timer.  Each of [fs] runs once untimed as a warm-up, then
   [reps] times, rep by rep in turn — rep 1 of every arm, then rep 2, ... —
   each from a freshly collected heap, so arms compared with each other
   share whatever drift the machine has: a full run has 3 reps (the least a
   BENCH row may carry), a smoke run 1.  A caller timing sub-millisecond
   work passes [batch], the calls of an arm per rep, and gets seconds per
   call.  Returns each arm's last result with its wall. *)
let measure_interleaved ?(batch = 1) fs =
  let reps = if !smoke then 1 else 3 in
  let run f =
    for _ = 2 to batch do
      ignore (f ())
    done;
    f ()
  in
  let now = Unix.gettimeofday in
  let last = Array.map run fs in
  let secs = Array.make (Array.length fs) [] in
  for _ = 1 to reps do
    Array.iteri
      (fun i f ->
        Gc.full_major ();
        let t0 = now () in
        last.(i) <- run f;
        secs.(i) <- ((now () -. t0) /. float_of_int batch) :: secs.(i))
      fs
  done;
  let open Quilt_util.Stats in
  Array.mapi
    (fun i l -> (l, { reps; median = median secs.(i); min = minimum secs.(i); max = maximum secs.(i) }))
    last

(* One arm alone. *)
let measure ?batch f = (measure_interleaved ?batch [| f |]).(0)

let pp_secs s =
  if s >= 1.0 then Printf.sprintf "%.3f s" s
  else if s >= 1e-3 then Printf.sprintf "%.3f ms" (s *. 1e3)
  else Printf.sprintf "%.2f us" (s *. 1e6)

(* A timed row, the one shape every timing section records:
   {row, reps, wall {median, min, max}, counters}, where [counters] is the
   deterministic work behind the time (steps, instrs, events, cost, ...). *)
let row name w counters =
  Printf.printf "  %-34s %11s (%s .. %s)  %s\n%!" name (pp_secs w.median) (pp_secs w.min)
    (pp_secs w.max)
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) counters));
  Json.Obj
    [
      ("row", Json.String name);
      ("reps", Json.Int w.reps);
      ( "wall",
        Json.Obj
          [ ("median", Json.Float w.median); ("min", Json.Float w.min); ("max", Json.Float w.max) ]
      );
      ("counters", Json.Obj counters);
    ]

(* A smoke run checks the deterministic [keys] of [rows] against the
   committed BENCH_<section>.json when the working directory has one (the
   repository root does), and fails on any difference. *)
let check_committed section keys rows =
  let file = "BENCH_" ^ section ^ ".json" in
  if not (Sys.file_exists file) then
    Printf.printf "  [no %s here: counters not checked]\n%!" file
  else begin
    let committed =
      Json.to_list (Json.member "rows" (Json.of_string (In_channel.with_open_bin file In_channel.input_all)))
    in
    let counters name rows =
      List.find_map
        (fun r ->
          if Json.member "row" r = Json.String name then Some (Json.member "counters" r) else None)
        rows
    in
    let diffs =
      List.concat_map
        (fun r ->
          let name = Option.get (Json.to_string_opt (Json.member "row" r)) in
          let now = Json.member "counters" r in
          match counters name committed with
          | None -> [ Printf.sprintf "%s: no committed row" name ]
          | Some was ->
              List.filter_map
                (fun k ->
                  let a = Json.to_string (Json.member k was) and b = Json.to_string (Json.member k now) in
                  if a = b then None else Some (Printf.sprintf "%s %s: committed %s, now %s" name k a b))
                keys)
        rows
    in
    if diffs <> [] then begin
      List.iter (Printf.printf "  COUNTER CHANGE: %s\n") diffs;
      failwith (Printf.sprintf "%s bench: counters differ from the committed %s" section file)
    end;
    Printf.printf "  counters = committed %s: yes\n%!" file
  end

(* Each timing section writes its BENCH_<section>.json whole, through this
   one writer: its timed rows, its untimed results in [extra], and the
   machine they ran on. *)
let write_section section ?(extra = []) rows =
  write_json
    ("BENCH_" ^ section ^ ".json")
    (Json.Obj
       ([
          ("section", Json.String section);
          ( "env",
            Json.Obj
              [
                ("ocaml", Json.String Sys.ocaml_version);
                ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
              ] );
          ("wall_unit", Json.String "s");
          ("rows", Json.List rows);
        ]
       @ extra))

let optimize_or_fail cfg wf =
  match Quilt.optimize cfg ~workflows:[ wf ] wf with
  | Ok t -> t
  | Error e -> failwith (Printf.sprintf "optimize %s: %s" wf.Workflow.wf_name e)

let pct_improvement ~baseline ~better = 100.0 *. (baseline -. better) /. baseline
