(* The repository benchmark.

     bench.exe --workload optimize-corpus|sim-load|adapt-drift
               --seed N --seconds S --trace 0|1

   Set-up builds the workload's inputs and profiles every workflow.  On
   sim-load and adapt-drift it also computes each workflow's Quilt plan with
   [Quilt.optimize ~graph] and runs the plan's merged entries on the QVM,
   each response compared with the reference evaluator's.  Set-up is
   repeated, and [setup_s] is its median.  The measured budget then goes to
   the workload's own phases only:
   - optimize-corpus: [Quilt.optimize ~graph] on every workflow, round
     after round, with the merge cache disabled so that every merge
     compiles; then every merged entry runs on the QVM for fixed seeded
     requests, each response checked;
   - sim-load: open-loop load under three deployment arms;
   - adapt-drift: the control-plane scenarios.
   Every workload reports every end-to-end metric.  Those it has no phase
   for come from its set-up: the [sim_*] metrics of optimize-corpus from
   the profiling runs, and the optimize and exec metrics of sim-load and
   adapt-drift from the plans set-up computes and checks.

   [--trace 0] prints the end-to-end metrics.  [--trace 1] runs each phase
   untraced, then traced for the same number of rounds, records a span
   around every public call it makes, prints the per-layer metrics and
   writes the spans to perfbench/out/.  The last line of standard output is
   one JSON object: correct, attempted, failed, metrics.  A failed check
   counts as a failed operation; a determinism mismatch makes the run
   incorrect and the exit code 1. *)

module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen
module Calltree = Quilt_platform.Calltree
module Workflow = Quilt_apps.Workflow
module Special = Quilt_apps.Special
module Callgraph = Quilt_dag.Callgraph
module Decision = Quilt_cluster.Decision
module Closure = Quilt_cluster.Closure
module Types = Quilt_cluster.Types
module Pipeline = Quilt_merge.Pipeline
module Ir = Quilt_ir.Ir
module Verify = Quilt_ir.Verify
module Compile = Quilt_ir.Compile
module Vm = Quilt_ir.Vm
module Interp = Quilt_ir.Interp
module Eval = Quilt_lang.Eval
module Frontend = Quilt_lang.Frontend
module Builder = Quilt_tracing.Builder
module Histogram = Quilt_util.Histogram
module Rng = Quilt_util.Rng
module Quilt = Quilt_core.Quilt
module Config = Quilt_core.Config
module Deploy = Quilt_core.Deploy
module Scenario = Quilt_control.Scenario
module Controller = Quilt_control.Controller

(* ---- Accounting ---- *)

let attempted = ref 0
let failed = ref 0

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "check failed: %s\n%!" what
  end

let mismatches = ref []

let same what a b =
  if a <> b then begin
    mismatches := what :: !mismatches;
    Printf.eprintf "determinism: %s differs\n%!" what
  end

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs

(* ---- Machine speed ---- *)

(* The machine is shared, and its speed drifts by tens of percent between
   runs and within one.  Every timed operation is therefore bracketed by
   short runs of a fixed reference loop, three before it and three after,
   and its wall time is scaled by [reference_nominal_s] over their median.
   A change to the program moves the scaled time; a change of CPU speed
   moves the operation and the reference alike and cancels out.  The loop
   is a branchy integer dispatch over a 32 KB table, like an
   interpreter's.  It allocates nothing, so neither the program's heap nor
   the collector moves it.  (A variant that also chased pointers through a
   4 MB table tracked the simulator worse: memory latency is noisier than
   the program's response to it.) *)
let reference_nominal_s = 0.00025

let reference_ops = Array.init 4096 (fun i -> (i * 7919) land 3)

(* Every reference sample, for the env line. *)
let reference_s = ref []

let reference_sample () =
  let t0 = Span.now_ns () in
  let acc = ref 1 in
  for i = 0 to 100_000 do
    acc :=
      match reference_ops.(i land 4095) with
      | 0 -> !acc + i
      | 1 -> !acc lxor (i lsl 3)
      | 2 -> (!acc * 3) land 0xffffff
      | _ -> !acc - (i land 255)
  done;
  ignore (Sys.opaque_identity !acc);
  let dt = Span.seconds_since t0 in
  reference_s := dt :: !reference_s;
  dt

(* Scaled and raw wall time of every timed operation so far.  Timed
   operations never nest, so these add up. *)
let scaled_total = ref 0.0
let raw_total = ref 0.0

(* [f ()], its wall time, and its scaled wall time. *)
let timed_scaled f =
  let before = List.init 3 (fun _ -> reference_sample ()) in
  let r, dt = Span.timed f in
  let after = List.init 3 (fun _ -> reference_sample ()) in
  let scaled = dt *. reference_nominal_s /. median (before @ after) in
  scaled_total := !scaled_total +. scaled;
  raw_total := !raw_total +. dt;
  (r, dt, scaled)

(* ---- Arguments and configuration ---- *)

let workloads = [ "optimize-corpus"; "sim-load"; "adapt-drift" ]
let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace_mode = ref false

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Int (fun v -> trace_mode := v = 1), " 1: traced run, per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "unknown workload %S (known: %s)\n" !workload (String.concat ", " workloads);
    exit 2
  end

(* sim-load and adapt-drift compute their plans in set-up. *)
let plans_in_setup = !workload <> "optimize-corpus"

(* Domains are passed explicitly in every [Config.t].  Timed optimize
   calls run on one domain: on a loaded 2-core machine, the time to start a
   second domain for a few-millisecond decision is scheduling noise.  One
   more round on [nproc] domains must reproduce their plans exactly. *)
let nproc = Domain.recommended_domain_count ()
let timed_domains = 1
let base_cfg = Corpus.config ~seed:!seed ~domains:timed_domains

(* ---- Workload inputs ---- *)

type subject = { wf : Workflow.t; cfg : Config.t }

type prepared = { s : subject; graph : Callgraph.t; reqs : string list }

(* Enough requests that the merged entries' executions average over the
   request mix: sim-load and adapt-drift run only a few merged entries. *)
let client_reqs (wf : Workflow.t) =
  let rng = Rng.create (7919 * !seed) in
  List.init 16 (fun _ -> wf.Workflow.gen_req rng)

(* Each sim-load workflow's rates and windows. *)
let sim_cases =
  List.map
    (fun ((wf : Workflow.t), light, heavy, warmup_s, measure_s) ->
      (wf.Workflow.wf_name, ([ light; heavy ], warmup_s, measure_s)))
    (Corpus.sim_load ())

let subjects () =
  match !workload with
  | "optimize-corpus" ->
      List.map (fun wf -> { wf; cfg = base_cfg }) (Corpus.bundled () @ Corpus.generated ~seed:!seed)
  | "sim-load" -> List.map (fun (wf, _, _, _, _) -> { wf; cfg = base_cfg }) (Corpus.sim_load ())
  | _ ->
      (* The scenarios' own offline inputs: the routed workflow under its
         6.5 ms CPU budget on path-shift's initial mix, and the fan-out
         workflow on regress's light mix. *)
      let routed = Special.routed () and fan_out = Special.fan_out ~callee_mem_mb:16 () in
      [
        {
          wf = { routed with Workflow.gen_req = Special.routed_req ~b_share:0.1 };
          cfg = { base_cfg with Config.cpu_budget_ms = 6.5 };
        };
        {
          wf = { fan_out with Workflow.gen_req = (fun r -> Printf.sprintf "{\"num\":%d}" (Rng.int_in r 1 3)) };
          cfg = base_cfg;
        };
      ]

(* ---- Simulation tallies ---- *)

type tally = {
  scaled_walls : (string, float list) Hashtbl.t;
      (** Scaled wall times of each simulation over the rounds so far. *)
  raw_walls : (string, float list) Hashtbl.t;  (** The same, unscaled. *)
  mutable reqs : int;  (** Offered client requests, every arm. *)
  mutable fails : int;
  mutable wall : float;
  mutable focus_q : (float * float) list;
      (** (p50, p99) in ms of each run of the arm the latency metrics report. *)
  mutable focus_n : int;  (** Latency samples behind [focus_q]. *)
  mutable focus_mem_mb : float;
  mutable events : int;
  mutable peak_queue : int;
  mutable cold : int;
  mutable oom : int;
  mutable local_calls : int;
  mutable remote_calls : int;
  mutable minor_words : float;
}

let new_tally (scaled_walls, raw_walls) =
  {
    scaled_walls;
    raw_walls;
    reqs = 0;
    fails = 0;
    wall = 0.0;
    focus_q = [];
    focus_n = 0;
    focus_mem_mb = 0.0;
    events = 0;
    peak_queue = 0;
    cold = 0;
    oom = 0;
    local_calls = 0;
    remote_calls = 0;
    minor_words = 0.0;
  }

let push tbl key v = Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

let record t ~key ~focus ~wall ~scaled ~minor ~events ~peak ~mem (r : Loadgen.result) =
  check (r.Loadgen.offered = r.Loadgen.successes + r.Loadgen.failures) "loadgen: offered = successes + failures";
  push t.scaled_walls key scaled;
  push t.raw_walls key wall;
  t.reqs <- t.reqs + r.Loadgen.offered;
  t.fails <- t.fails + r.Loadgen.failures;
  t.wall <- t.wall +. wall;
  t.minor_words <- t.minor_words +. minor;
  t.events <- t.events + events;
  t.peak_queue <- max t.peak_queue peak;
  let c = r.Loadgen.counters in
  t.cold <- t.cold + c.Engine.cold_starts;
  t.oom <- t.oom + c.Engine.oom_kills;
  t.local_calls <- t.local_calls + c.Engine.local_invocations;
  t.remote_calls <- t.remote_calls + c.Engine.remote_invocations;
  if focus then begin
    t.focus_q <- (Loadgen.median_ms r, Loadgen.p99_ms r) :: t.focus_q;
    t.focus_n <- t.focus_n + Histogram.count r.Loadgen.latencies;
    t.focus_mem_mb <- t.focus_mem_mb +. mem
  end

(* Latency percentiles are per run, combined by geometric mean: runs of
   different workflows differ by orders of magnitude, and a percentile of
   their pooled samples would jump between workflows from seed to seed. *)
let geomean xs =
  if xs = [] then 0.0
  else exp (List.fold_left (fun a x -> a +. log (Float.max x 1e-3)) 0.0 xs /. float_of_int (List.length xs))

(* Every round simulates the same things, so a round's requests over the
   sum of each simulation's median wall time is the simulated requests per
   second. *)
let sim_req_per_s t walls = ratio (float_of_int t.reqs) (Hashtbl.fold (fun _ ws acc -> acc +. median ws) walls 0.0)

(* A fresh tally per round, sharing one pair of wall-time tables. *)
let tally_rounds () =
  let walls = (Hashtbl.create 64, Hashtbl.create 64) in
  let tally = ref (new_tally walls) in
  (tally, fun () -> tally := new_tally walls)

(* [f ()] run as simulation work: its wall time, its scaled wall time, and
   its minor words. *)
let simulate f =
  let m0 = Gc.minor_words () in
  let r, wall, scaled = timed_scaled f in
  (r, wall, scaled, Gc.minor_words () -. m0)

let record_engine t ~key ~focus ~wall ~scaled ~minor engine r =
  record t ~key ~focus ~wall ~scaled ~minor ~events:(Engine.events_processed engine)
    ~peak:(Engine.peak_queue_depth engine) ~mem:(Engine.total_base_mem_mb engine) r

(* ---- Set-up: profiling ---- *)

(* The steps of [Quilt.profile], called one by one so that the profiling
   simulation's results and the call-graph build are measurable. *)
let profile tally { wf; cfg } =
  let key = wf.Workflow.wf_name in
  Span.with_span ~key "core.profile" (fun () ->
      let (engine, r), wall, scaled, minor =
        simulate (fun () ->
            Span.with_span ~key "platform.simulate" (fun () ->
                let engine = Quilt.fresh_platform ~seed:cfg.Config.seed ~config:cfg ~workflows:[ wf ] () in
                Engine.set_profiling engine true;
                let d = cfg.Config.profile_duration_us in
                ( engine,
                  Loadgen.run_closed_loop engine ~entry:wf.Workflow.entry ~gen_req:wf.Workflow.gen_req
                    ~connections:cfg.Config.profile_connections ~duration_us:d ~warmup_us:(d *. 0.15) () )))
      in
      record_engine tally ~key ~focus:true ~wall ~scaled ~minor engine r;
      let graph, _, _ =
        timed_scaled (fun () ->
            match
              Span.with_span ~key "tracing.build" (fun () ->
                  Builder.build (Engine.tracing engine) ~entry:wf.Workflow.entry ())
            with
            | Error e -> failwith (Printf.sprintf "profiling %s: %s" key e)
            | Ok g -> Quilt.with_optin wf (Builder.known_calls ~code_edges:wf.Workflow.code_edges g))
      in
      graph)

(* ---- Optimize ---- *)

let exact_searches = ref 0

let members_of (sg : Types.subgraph) =
  Array.fold_left (fun a b -> if b then a + 1 else a) 0 sg.Types.members

(* The end-to-end run calls the public [Quilt.optimize ~graph].  The traced
   run calls the two steps it takes with no reliability penalty and no
   algorithm override ([Decision.auto], then [Deploy.merged_spec] per
   multi-member group), each in its own span, in both its untraced and its
   traced pass, so that the two passes differ only by the spans. *)
let optimize ~domains (p : prepared) =
  let wf = p.s.wf and graph = p.graph in
  let cfg = { p.s.cfg with Config.domains } in
  if not !trace_mode then Quilt.optimize ~graph cfg ~workflows:[ wf ] wf
  else
    let key = wf.Workflow.wf_name in
    Span.with_span ~key "core.optimize" (fun () ->
        let regime = if Decision.auto_algorithm graph = Decision.Optimal then "exact" else "heuristic" in
        let before = Closure.bounded_search_count () in
        let solution =
          Span.with_span ~key ("cluster.decide." ^ regime) (fun () ->
              Decision.auto ~seed:cfg.Config.seed ~domains graph (Config.limits cfg))
        in
        if !Span.enabled then exact_searches := !exact_searches + Closure.bounded_search_count () - before;
        match solution with
        | None -> Error "no feasible grouping under the resource constraints"
        | Some solution ->
            let deployments =
              List.filter_map
                (fun sg ->
                  if members_of sg < 2 then None
                  else
                    Some
                      (Span.with_span ~key "merge.group" (fun () ->
                           Deploy.merged_spec cfg wf ~graph ~subgraph:sg)))
                solution.Types.subgraphs
            in
            Ok { Quilt.workflow = wf; callgraph = graph; solution; deployments })

let instrs_of (t : Quilt.t) =
  sum (fun (d : Deploy.merged_deployment) -> Ir.instr_count d.Deploy.report.Pipeline.merged_module) t.Quilt.deployments

let fingerprint = function
  | None -> "failed"
  | Some (t : Quilt.t) ->
      Printf.sprintf "%s cost=%d instrs=%d %s" t.Quilt.workflow.Workflow.wf_name t.Quilt.solution.Types.cost
        (instrs_of t) (Controller.fingerprint t)

type opt_result = {
  opt_ms : float list;  (** Each workflow's median scaled call time. *)
  opt_ms_raw : float list;  (** The same, unscaled. *)
  opt_calls : int;
  opt_fps : string list;  (** The first round's plans. *)
  opt_plans : Quilt.t option list;  (** The last round's plans. *)
}

(* A round optimizes every workflow once and returns the plans; every round
   must reproduce the first one's plans exactly. *)
let optimize_phase ?(domains = timed_domains) () =
  let scaled = Hashtbl.create 64 and raw = Hashtbl.create 64 in
  let calls = ref 0 and first = ref None and last = ref [] in
  let round prepared =
    let plans =
      List.mapi
        (fun i p ->
          incr attempted;
          incr calls;
          let r, dt, s = timed_scaled (fun () -> optimize ~domains p) in
          push scaled i (s *. 1000.0);
          push raw i (dt *. 1000.0);
          match r with
          | Ok t -> Some t
          | Error e ->
              incr failed;
              Printf.eprintf "optimize %s: %s\n%!" p.s.wf.Workflow.wf_name e;
              None)
        prepared
    in
    let fps = List.map fingerprint plans in
    (match !first with None -> first := Some fps | Some f -> same "plans across optimize rounds" f fps);
    last := plans;
    plans
  in
  let medians tbl = Hashtbl.fold (fun _ xs acc -> median xs :: acc) tbl [] in
  ( round,
    fun () ->
      {
        opt_ms = medians scaled;
        opt_ms_raw = medians raw;
        opt_calls = !calls;
        opt_fps = Option.value ~default:[] !first;
        opt_plans = !last;
      } )

(* ---- Exec ---- *)

type exec_item = { prog : Compile.prog; fname : string; req : string; expected : string; host : Interp.host }

(* The reference: every function evaluated by [Eval], memoised on
   (function, request) since functions are deterministic.  It also records
   the requests each function received, so merged group roots run on the
   requests the workflow really sends them. *)
let reference (wf : Workflow.t) =
  let memo = Hashtbl.create 64 and received = Hashtbl.create 16 in
  let rec call name req =
    match Hashtbl.find_opt memo (name, req) with
    | Some res -> res
    | None ->
        let res, _ =
          Eval.run ~invoke:(fun ~kind:_ ~name ~req -> call name req) (Workflow.lookup wf name) ~req
        in
        Hashtbl.replace memo (name, req) res;
        push received name req;
        res
  in
  (call, received)

let rec take n = function [] -> [] | x :: r -> if n = 0 then [] else x :: take (n - 1) r

(* Cut edges and §5.6 overflow calls leave the merged module through the
   host, which answers them with the reference result. *)
let exec_items (t : Quilt.t) ~reqs =
  let call, received = reference t.Quilt.workflow in
  List.iter (fun req -> ignore (call t.Quilt.workflow.Workflow.entry req)) reqs;
  let host = { Interp.invoke = (fun ~kind:_ ~name ~req -> call name req) } in
  List.concat_map
    (fun (d : Deploy.merged_deployment) ->
      let prog =
        Span.with_span ~key:d.Deploy.root "ir.compile" (fun () ->
            Compile.compile d.Deploy.report.Pipeline.merged_module)
      in
      let seen = List.rev (Option.value ~default:[] (Hashtbl.find_opt received d.Deploy.root)) in
      List.map
        (fun req -> { prog; fname = d.Deploy.report.Pipeline.entry; req; expected = call d.Deploy.root req; host })
        (take 8 seen))
    t.Quilt.deployments

let plan_items prepared plans =
  List.concat
    (List.map2
       (fun (p : prepared) -> function Some t -> exec_items t ~reqs:p.reqs | None -> [])
       prepared plans)

type exec_result = {
  exec_runs : int;
  exec_steps : int;
  exec_s : float list;  (** Each round's scaled wall time per execution. *)
  exec_s_raw : float list;
  exec_rounds : int;
}

(* A round runs every item [reps] times, enough for about 20 ms, so that
   the round outweighs the reference samples around it; [reps] is set from
   one unchecked pass before the first round.  Every round must take the
   same QVM steps. *)
let exec_phase () =
  let runs = ref 0 and steps = ref 0 and first_steps = ref None in
  let times = ref [] and raw_times = ref [] and reps = ref 0 in
  let run it = Vm.run_handler_prog ~host:it.host it.prog ~fname:it.fname ~req:it.req in
  let round items =
    if !reps = 0 then begin
      let (), once = Span.timed (fun () -> List.iter (fun it -> ignore (run it)) items) in
      reps := max 1 (int_of_float (0.02 /. Float.max once 1e-6))
    end;
    let round_steps = ref 0 in
    let run_item it =
      incr attempted;
      incr runs;
      match Span.with_span ~key:it.fname "ir.exec" (fun () -> run it) with
      | Ok (res, st) ->
          round_steps := !round_steps + st.Interp.steps;
          if res <> it.expected then begin
            incr failed;
            Printf.eprintf "exec %s: merged response differs from the reference\n%!" it.fname
          end
      | Error e ->
          incr failed;
          Printf.eprintf "exec %s: %s\n%!" it.fname e
    in
    let (), dt, scaled =
      timed_scaled (fun () ->
          for _ = 1 to !reps do
            List.iter run_item items
          done)
    in
    let n = float_of_int (!reps * max 1 (List.length items)) in
    times := (scaled /. n) :: !times;
    raw_times := (dt /. n) :: !raw_times;
    steps := !steps + !round_steps;
    match !first_steps with
    | None -> first_steps := Some !round_steps
    | Some s -> same "QVM steps across exec rounds" s !round_steps
  in
  ( round,
    fun () ->
      {
        exec_runs = !runs;
        exec_steps = !steps;
        exec_s = !times;
        exec_s_raw = !raw_times;
        exec_rounds = List.length !times;
      } )

(* Control-plane counters of adapt-drift; zero elsewhere. *)
type control_counts = {
  mutable ticks : int;
  mutable remerges : int;
  mutable rebaselines : int;
  mutable rollbacks : int;
  mutable canary_passes : int;
  mutable cache_hits : int;
  mutable cache_lookups : int;
  mutable ctl_extra_s : float;  (** Scaled wall with the controller minus without it. *)
  mutable obs_s : float;  (** Scaled wall of path-shift in observability mode... *)
  mutable truth_s : float;  (** ... and on the engine's ground-truth profiler. *)
}

let new_counts () =
  {
    ticks = 0;
    remerges = 0;
    rebaselines = 0;
    rollbacks = 0;
    canary_passes = 0;
    cache_hits = 0;
    cache_lookups = 0;
    ctl_extra_s = 0.0;
    obs_s = 0.0;
    truth_s = 0.0;
  }

(* ---- Phase: sim-load ---- *)

type arm = Plain | Cm | Merged

let arm_name = function Plain -> "plain" | Cm -> "container-merge" | Merged -> "quilt"

let sim_case tally (p : prepared) (plan : Quilt.t) ~rate ~warmup_s ~measure_s arm =
  let wf = p.s.wf and cfg = p.s.cfg in
  let key = Printf.sprintf "%s@%g/%s" wf.Workflow.wf_name rate (arm_name arm) in
  let (engine, r), wall, scaled, minor =
    simulate (fun () ->
        Span.with_span ~key "platform.simulate" (fun () ->
            Corpus.sim_case cfg wf ~rate ~warmup_s ~measure_s ~seed:!seed (fun engine ->
                match arm with
                | Plain -> ()
                | Cm -> Deploy.deploy_cm engine cfg wf
                | Merged -> Span.with_span ~key "core.apply" (fun () -> Quilt.apply engine plan))))
  in
  record_engine tally ~key ~focus:(arm = Merged) ~wall ~scaled ~minor engine r;
  Printf.sprintf "%s offered=%d ok=%d p50=%.3f p99=%.3f events=%d" key r.Loadgen.offered r.Loadgen.successes
    (Loadgen.median_ms r) (Loadgen.p99_ms r) (Engine.events_processed engine)

let sim_phase cases () =
  let tally, start = tally_rounds () and first = ref None in
  let round () =
    start ();
    let fps =
      List.concat_map
        (fun ((p : prepared), plan) ->
          let rates, warmup_s, measure_s = List.assoc p.s.wf.Workflow.wf_name sim_cases in
          List.concat_map
            (fun rate ->
              List.map
                (fun arm ->
                  incr attempted;
                  sim_case !tally p plan ~rate ~warmup_s ~measure_s arm)
                [ Plain; Cm; Merged ])
            rates)
        cases
    in
    match !first with
    | None ->
        List.iter print_endline fps;
        first := Some fps
    | Some f -> same "simulations across passes" f fps
  in
  (round, fun () -> (!tally, new_counts ()))

(* ---- Phase: adapt-drift ---- *)

let summary_fp = function
  | None -> "no controller"
  | Some (s : Controller.summary) ->
      Printf.sprintf "ticks=%d remerges=%d rebaselines=%d holds=%d passes=%d rollbacks=%d watchdogs=%d"
        s.Controller.s_ticks s.Controller.s_remerges s.Controller.s_rebaselines s.Controller.s_holds
        s.Controller.s_canary_passes s.Controller.s_rollbacks s.Controller.s_watchdogs

(* The scenario runner's own engine, offline optimize, profiling and
   re-merges all run inside the one [control.scenario] (or [obs.scenario])
   span, so on adapt-drift they count towards control's (or obs's) self
   time. *)
let scenario_run tally counts ~scenario_seed ?obs_sample ~with_controller name =
  incr attempted;
  Pipeline.reset_cache ();
  Engine.reset_global_stats ();
  let layer = if obs_sample = None then "control.scenario" else "obs.scenario" in
  let r, wall, scaled, minor =
    simulate (fun () ->
        Span.with_span ~key:name layer (fun () ->
            Scenario.run ~seed:scenario_seed ?obs_sample ~with_controller name))
  in
  match r with
  | Error e ->
      incr failed;
      Printf.eprintf "scenario %s: %s\n%!" name e;
      (scaled, "failed")
  | Ok o ->
      let events, peak = Engine.global_stats () in
      let overall = o.Scenario.o_phased.Loadgen.overall in
      let key = Printf.sprintf "%s/%d/%s/%b" name scenario_seed layer with_controller in
      record tally ~key ~focus:with_controller ~wall ~scaled ~minor ~events ~peak ~mem:0.0 overall;
      let hits, misses = Pipeline.cache_stats () in
      counts.cache_hits <- counts.cache_hits + hits;
      counts.cache_lookups <- counts.cache_lookups + hits + misses;
      Option.iter
        (fun (s : Controller.summary) ->
          counts.ticks <- counts.ticks + s.Controller.s_ticks;
          counts.remerges <- counts.remerges + s.Controller.s_remerges;
          counts.rebaselines <- counts.rebaselines + s.Controller.s_rebaselines;
          counts.rollbacks <- counts.rollbacks + s.Controller.s_rollbacks + s.Controller.s_watchdogs;
          counts.canary_passes <- counts.canary_passes + s.Controller.s_canary_passes)
        o.Scenario.o_summary;
      ( scaled,
        Printf.sprintf "%s/%d offered=%d fail=%d p50=%.3f p99=%.3f events=%d %s" name scenario_seed
          overall.Loadgen.offered overall.Loadgen.failures (Loadgen.median_ms overall) (Loadgen.p99_ms overall)
          events (summary_fp o.Scenario.o_summary) )

(* One pass: every scenario on ten seeds with the controller, plus
   path-shift in observability mode.  Ten seeds because regress's tail is
   bimodal across seeds.  The traced run adds the same runs without the
   controller, for the controller's own cost. *)
let scenario_seeds = 10

let adapt_phase () =
  let tally, start = tally_rounds () in
  let counts = ref (new_counts ()) and first = ref None in
  let obs_seed = scenario_seeds * !seed in
  let round () =
    start ();
    counts := new_counts ();
    let c = !counts in
    let fps =
      List.concat_map
        (fun scenario_seed ->
          List.map
            (fun name ->
              let scaled, fp = scenario_run !tally c ~scenario_seed ~with_controller:true name in
              if !trace_mode then begin
                let bare, _ = scenario_run !tally c ~scenario_seed ~with_controller:false name in
                c.ctl_extra_s <- c.ctl_extra_s +. scaled -. bare
              end;
              if name = "path-shift" && scenario_seed = obs_seed then c.truth_s <- c.truth_s +. scaled;
              fp)
            Scenario.names)
        (List.init scenario_seeds (fun i -> obs_seed + i))
    in
    let obs_scaled, obs_fp =
      scenario_run !tally c ~scenario_seed:obs_seed ~obs_sample:10 ~with_controller:true "path-shift"
    in
    c.obs_s <- c.obs_s +. obs_scaled;
    match !first with
    | None ->
        List.iter print_endline (obs_fp :: fps);
        first := Some (obs_fp :: fps)
    | Some f -> same "scenario outcomes across passes" f (obs_fp :: fps)
  in
  (round, fun () -> (!tally, !counts))

(* ---- Measurement loop ---- *)

let run_rounds ~budget ~min_rounds round =
  let t0 = Span.now_ns () in
  let n = ref 0 in
  while !n < min_rounds || Span.seconds_since t0 < budget do
    round ();
    incr n
  done;
  !n

(* Scaled wall time of the untraced and the traced passes. *)
let untraced_s = ref 0.0
let traced_s = ref 0.0

(* Untraced: whole rounds until the budget is spent.  Traced: rounds for
   half the budget untraced, then as many traced; their scaled wall times
   give the tracing overhead, and the traced pass's results are returned. *)
let measure ~budget ~min_rounds make =
  if not !trace_mode then begin
    let round, get = make () in
    let n = run_rounds ~budget ~min_rounds round in
    (get (), n)
  end
  else begin
    let round, _ = make () in
    let s0 = !scaled_total in
    let n = run_rounds ~budget:(budget /. 2.0) ~min_rounds round in
    untraced_s := !untraced_s +. !scaled_total -. s0;
    let round, get = make () in
    let s1 = !scaled_total in
    Span.enabled := true;
    ignore (run_rounds ~budget:0.0 ~min_rounds:n round);
    Span.enabled := false;
    traced_s := !traced_s +. !scaled_total -. s1;
    (get (), n)
  end

let () =
  Pipeline.set_cache_enabled false;
  Pipeline.reset_cache ();
  let budget = Float.max 1.0 !seconds in
  (* Set-up, repeated (at least three times and three seconds) for a median:
     build the inputs and profile every workflow; on sim-load and
     adapt-drift, also optimize every workflow and run the merged entries.
     A set-up's time is the sum of its timed steps' scaled times, so a
     change of machine speed during a long set-up is tracked too.  The
     profiling simulations are optimize-corpus's simulated load. *)
  let ptally, pstart = tally_rounds () in
  let setup_opt, setup_opt_result = optimize_phase () in
  let setup_exec, setup_exec_result = exec_phase () in
  let setup () =
    pstart ();
    let s0 = !scaled_total and r0 = !raw_total in
    let subjects, _, _ = timed_scaled subjects in
    let prepared = List.map (fun s -> { s; graph = profile !ptally s; reqs = client_reqs s.wf }) subjects in
    if plans_in_setup then begin
      let plans = setup_opt prepared in
      let items, _, _ = timed_scaled (fun () -> plan_items prepared plans) in
      setup_exec items
    end;
    (prepared, !scaled_total -. s0, !raw_total -. r0)
  in
  let runs = ref [] in
  Span.enabled := !trace_mode;
  let setups =
    run_rounds
      ~budget:(if !trace_mode then 0.0 else 3.0)
      ~min_rounds:(if !trace_mode then 1 else 3)
      (fun () -> runs := setup () :: !runs)
  in
  Span.enabled := false;
  let prepared, _, _ = List.hd !runs in
  let shape ps = List.map (fun p -> (p.graph.Callgraph.nodes, p.graph.Callgraph.edges)) ps in
  List.iter (fun (ps, _, _) -> same "profiled call graphs across set-ups" (shape prepared) (shape ps)) !runs;
  let setup_s = median (List.map (fun (_, s, _) -> s) !runs) in
  let setup_s_raw = median (List.map (fun (_, _, r) -> r) !runs) in
  (* optimize-corpus: the optimize phase, then the exec phase, on the
     kept set-up's workflows; at least 100 optimize calls.  A warm-up call
     first settles lazy state. *)
  let n_wf = List.length prepared in
  let opt, exec_result =
    if plans_in_setup then (setup_opt_result (), setup_exec_result ())
    else begin
      ignore (optimize ~domains:timed_domains (List.hd prepared));
      let opt, _ =
        measure ~budget:(budget *. 0.75) ~min_rounds:((100 + n_wf - 1) / n_wf) (fun () ->
            let round, get = optimize_phase () in
            ((fun () -> ignore (round prepared)), get))
      in
      Span.enabled := !trace_mode;
      let items = plan_items prepared opt.opt_plans in
      Span.enabled := false;
      let exec_result, _ =
        measure ~budget:(budget *. 0.25) ~min_rounds:1 (fun () ->
            let round, get = exec_phase () in
            ((fun () -> round items), get))
      in
      (opt, exec_result)
    end
  in
  (* Determinism across domain counts: one more round on nproc domains. *)
  let round_n, get_n = optimize_phase ~domains:nproc () in
  ignore (round_n prepared);
  same "plans on 1 domain vs nproc" opt.opt_fps (get_n ()).opt_fps;
  let cases =
    List.filter_map (fun (p, t) -> Option.map (fun t -> (p, t)) t) (List.combine prepared opt.opt_plans)
  in
  let plans = List.map snd cases in
  List.iter
    (fun ((p : prepared), (t : Quilt.t)) ->
      check
        (Quilt_cluster.Metrics.solution_valid t.Quilt.callgraph (Config.limits p.s.cfg) t.Quilt.solution = Ok ())
        ("solution_valid " ^ p.s.wf.Workflow.wf_name);
      List.iter
        (fun (d : Deploy.merged_deployment) ->
          let diags = Verify.run ~strict:true d.Deploy.report.Pipeline.merged_module in
          check
            (not (List.exists (fun dg -> dg.Verify.severity = Verify.Error) diags))
            ("strict verify " ^ d.Deploy.root))
        t.Quilt.deployments)
    cases;
  (* The simulation phase of sim-load and adapt-drift gets the whole
     budget; optimize-corpus's simulations are its set-up's profiling. *)
  let (sim_tally, counts), sim_rounds =
    match !workload with
    | "sim-load" -> measure ~budget ~min_rounds:1 (sim_phase cases)
    | "adapt-drift" ->
        (* The control plane re-merges through the content-addressed cache;
           each scenario run starts from an empty one. *)
        Pipeline.set_cache_enabled true;
        let r = measure ~budget ~min_rounds:1 adapt_phase in
        Pipeline.set_cache_enabled false;
        r
    | _ -> ((!ptally, new_counts ()), setups)
  in
  (* Traced run only: single calls into the layers the phases reach only
     from inside other calls. *)
  if !trace_mode then begin
    Span.enabled := true;
    List.iter
      (fun p ->
        let wf = p.s.wf in
        List.iter
          (fun (fn : Quilt_lang.Ast.fn) ->
            ignore (Span.with_span ~key:fn.Quilt_lang.Ast.fn_name "lang.frontend" (fun () -> Frontend.compile fn)))
          wf.Workflow.functions;
        let registry = Workflow.registry [ wf ] in
        let rec eval name req =
          fst (Eval.run ~invoke:(fun ~kind:_ ~name ~req -> eval name req) (Workflow.lookup wf name) ~req)
        in
        List.iter
          (fun req ->
            ignore (Span.with_span ~key:req "lang.eval" (fun () -> eval wf.Workflow.entry req));
            ignore
              (Span.with_span ~key:req "platform.calltree" (fun () ->
                   Calltree.build registry ~entry:wf.Workflow.entry ~req)))
          p.reqs)
      prepared;
    List.iter
      (fun (t : Quilt.t) ->
        List.iter
          (fun (d : Deploy.merged_deployment) ->
            let m = d.Deploy.report.Pipeline.merged_module in
            ignore (Span.with_span ~key:d.Deploy.root "ir.verify_strict" (fun () -> Verify.run ~strict:true m));
            ignore (Span.with_span ~key:d.Deploy.root "ir.interference" (fun () -> Verify.interference m)))
          t.Quilt.deployments)
      plans;
    Span.enabled := false
  end;
  (* ---- Report ---- *)
  let deployments = List.concat_map (fun (t : Quilt.t) -> t.Quilt.deployments) plans in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let exec_req_per_s = ratio 1.0 (median exec_result.exec_s) in
  let sim_rps = sim_req_per_s sim_tally sim_tally.scaled_walls in
  (* The sample counts behind every percentile and median, and the raw
     (unscaled) wall-time metrics next to the reference's own time. *)
  Printf.printf
    "env {\"workload\":%S,\"seed\":%d,\"seconds\":%g,\"trace\":%b,\"commit\":%S,\"ocaml\":%S,\"nproc\":%d,\"domains\":%d,\"gate_domains\":%d,\"setups\":%d,\"optimize_workflows\":%d,\"optimize_calls\":%d,\"exec_items_runs\":%d,\"exec_rounds\":%d,\"sim_rounds\":%d,\"sim_requests_per_round\":%d,\"sim_latency_runs\":%d,\"sim_latency_samples\":%d,\"reference_ms_median\":%.4f,\"reference_samples\":%d,\"raw\":{\"setup_s\":%.4f,\"optimize_ms_p50\":%.4f,\"optimize_ms_p90\":%.4f,\"exec_req_per_s\":%.1f,\"sim_req_per_s\":%.1f}}\n"
    !workload !seed !seconds !trace_mode
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT"))
    Sys.ocaml_version nproc timed_domains nproc setups n_wf opt.opt_calls exec_result.exec_runs
    exec_result.exec_rounds sim_rounds sim_tally.reqs (List.length sim_tally.focus_q) sim_tally.focus_n
    (1000.0 *. median !reference_s) (List.length !reference_s) setup_s_raw (percentile opt.opt_ms_raw 0.5)
    (percentile opt.opt_ms_raw 0.9)
    (ratio 1.0 (median exec_result.exec_s_raw))
    (sim_req_per_s sim_tally sim_tally.raw_walls);
  let metrics = ref [] in
  let add name unit v = metrics := (name, v, unit) :: !metrics in
  let reqs = float_of_int sim_tally.reqs in
  if not !trace_mode then begin
    add "setup_s" "s" setup_s;
    add "optimize_ms_p50" "ms" (percentile opt.opt_ms 0.5);
    add "optimize_ms_p90" "ms" (percentile opt.opt_ms 0.9);
    add "exec_req_per_s" "1/s" exec_req_per_s;
    (* Cut cost as a share of the unmerged deployment's, averaged over
       workflows: raw costs scale with each profile's request count. *)
    add "plan_cost" "share"
      (List.fold_left
         (fun a (t : Quilt.t) ->
           a
           +. ratio (float_of_int t.Quilt.solution.Types.cost)
                (float_of_int (Quilt_cluster.Metrics.baseline_cost t.Quilt.callgraph)))
         0.0 plans
      /. float_of_int (max 1 (List.length plans)));
    add "merged_instrs" "count" (float_of_int (sum instrs_of plans));
    add "sim_req_per_s" "1/s" sim_rps;
    add "sim_p50_ms" "ms" (geomean (List.map fst sim_tally.focus_q));
    add "sim_p99_ms" "ms" (geomean (List.map snd sim_tally.focus_q));
    add "peak_heap_mb" "MB" peak_heap_mb
  end
  else begin
    let ms prefix = Span.mean_us prefix /. 1000.0 in
    let group_us = Span.mean_us "merge.group" and verify_us = Span.mean_us "ir.verify_strict" in
    (* The pipeline verifies after its front end, after two stages per
       merged callee, and after seven fixed stages plus a final check. *)
    let verify_stages =
      sum (fun (d : Deploy.merged_deployment) -> (2 * (List.length d.Deploy.members - 1)) + 9) deployments
    in
    add "cluster.decide_ms" "ms" (ms "cluster.decide");
    add "cluster.decide_ms.exact" "ms" (ms "cluster.decide.exact");
    add "cluster.decide_ms.heuristic" "ms" (ms "cluster.decide.heuristic");
    add "cluster.exact_searches" "count" (float_of_int !exact_searches);
    add "merge.group_ms" "ms" (group_us /. 1000.0);
    add "merge.rounds" "count"
      (float_of_int (sum (fun (d : Deploy.merged_deployment) -> List.length d.Deploy.report.Pipeline.rounds) deployments));
    add "merge.removed_symbols" "count"
      (float_of_int (sum (fun (d : Deploy.merged_deployment) -> d.Deploy.report.Pipeline.removed_symbols) deployments));
    add "merge.cache_hits" "count" (float_of_int counts.cache_hits);
    add "merge.cache_lookups" "count" (float_of_int counts.cache_lookups);
    add "merge.cache_hit_ratio" "ratio" (ratio (float_of_int counts.cache_hits) (float_of_int counts.cache_lookups));
    add "ir.verify_strict_us" "us" verify_us;
    add "ir.interference_us" "us" (Span.mean_us "ir.interference");
    add "ir.verify_share_pct" "%"
      (100.0 *. ratio (verify_us *. float_of_int verify_stages) (group_us *. float_of_int (List.length deployments)));
    add "ir.compile_us" "us" (Span.mean_us "ir.compile");
    add "ir.exec_us" "us" (Span.mean_us "ir.exec");
    add "ir.steps_per_req" "count"
      (ratio (float_of_int exec_result.exec_steps) (float_of_int exec_result.exec_runs));
    add "lang.frontend_us" "us" (Span.mean_us "lang.frontend");
    add "lang.eval_us" "us" (Span.mean_us "lang.eval");
    add "core.profile_ms" "ms" (ms "core.profile");
    add "tracing.build_ms" "ms" (ms "tracing.build");
    add "platform.events" "count" (float_of_int sim_tally.events);
    add "platform.events_per_req" "count" (ratio (float_of_int sim_tally.events) reqs);
    add "platform.events_per_s" "1/s" (ratio (float_of_int sim_tally.events) sim_tally.wall);
    add "platform.peak_queue_depth" "count" (float_of_int sim_tally.peak_queue);
    add "platform.minor_words_per_req" "words" (ratio sim_tally.minor_words reqs);
    add "platform.calltree_us" "us" (Span.mean_us "platform.calltree");
    add "platform.cold_starts" "count" (float_of_int sim_tally.cold);
    add "platform.oom_kills" "count" (float_of_int sim_tally.oom);
    let calls = float_of_int (sim_tally.local_calls + sim_tally.remote_calls) in
    add "platform.local_share" "ratio" (ratio (float_of_int sim_tally.local_calls) calls);
    add "platform.local_share_base" "count" calls;
    add "sim_mem_mb" "MB" sim_tally.focus_mem_mb;
    add "sim_fail_frac" "ratio" (ratio (float_of_int sim_tally.fails) reqs);
    add "control.ticks" "count" (float_of_int counts.ticks);
    add "control.remerges" "count" (float_of_int counts.remerges);
    add "control.rebaselines" "count" (float_of_int counts.rebaselines);
    add "control.rollbacks" "count" (float_of_int counts.rollbacks);
    add "control.canary_passes" "count" (float_of_int counts.canary_passes);
    add "control.cost_ms_per_tick" "ms" (1000.0 *. ratio counts.ctl_extra_s (float_of_int counts.ticks));
    add "obs.overhead_pct" "%"
      (if counts.truth_s > 0.0 then 100.0 *. ((counts.obs_s /. counts.truth_s) -. 1.0) else 0.0);
    add "trace.overhead_pct" "%" (100.0 *. (ratio !traced_s !untraced_s -. 1.0));
    add "trace.spans" "count" (float_of_int (List.length !Span.recorded));
    let self = Span.self_seconds_by_layer () in
    List.iter
      (fun l -> add (l ^ ".self_ms") "ms" (1000.0 *. Option.value ~default:0.0 (Hashtbl.find_opt self l)))
      [ "core"; "cluster"; "merge"; "ir"; "lang"; "tracing"; "platform"; "control"; "obs" ];
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "perfbench/out/spans-%s-%d.json" !workload !seed in
    Span.write_chrome path;
    Printf.printf "spans written to %s\n" path
  end;
  let correct = !failed = 0 && !mismatches = [] in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct !attempted !failed
    (String.concat ","
       (List.rev_map
          (fun (name, v, unit) -> Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name v unit)
          !metrics));
  if not correct then exit 1
