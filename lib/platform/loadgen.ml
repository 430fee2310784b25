module Histogram = Quilt_util.Histogram
module Rng = Quilt_util.Rng

type result = {
  latencies : Histogram.t;
  successes : int;
  failures : int;
  offered : int;
  duration_us : float;
  throughput_rps : float;
  counters : Engine.counters;
}

let median_ms r = Histogram.median r.latencies /. 1000.0
let p99_ms r = Histogram.quantile r.latencies 0.99 /. 1000.0
let mean_ms r = Histogram.mean r.latencies /. 1000.0

let availability r =
  if r.offered = 0 then 1.0 else float_of_int r.successes /. float_of_int r.offered

(* Goodput: successful completions per second — [throughput_rps] under a
   clearer name for the fault benchmarks, where offered and completed
   diverge. *)
let goodput_rps r = r.throughput_rps

type recorder = {
  hist : Histogram.t;
  mutable succ : int;
  mutable succ_in_window : int;  (* completions before the window closed *)
  mutable fail : int;
  mutable sent : int;
  mutable in_flight : int;
}

let new_recorder () =
  { hist = Histogram.create (); succ = 0; succ_in_window = 0; fail = 0; sent = 0; in_flight = 0 }

(* One measured request has left the client. *)
let record_sent rec_ =
  rec_.sent <- rec_.sent + 1;
  rec_.in_flight <- rec_.in_flight + 1

(* One measured request has completed.  Throughput counts only completions
   inside the measurement window (up to [t_close]); latencies of stragglers
   still count against the requests that were issued in the window (wrk2's
   coordinated-omission-free accounting). *)
let record_done sim rec_ ~t_close ~latency_us ~ok =
  rec_.in_flight <- rec_.in_flight - 1;
  if ok then begin
    rec_.succ <- rec_.succ + 1;
    if Engine.now sim <= t_close then rec_.succ_in_window <- rec_.succ_in_window + 1;
    Histogram.record rec_.hist latency_us
  end
  else rec_.fail <- rec_.fail + 1

(* Requests still in flight after the grace period count as failures. *)
let result_of rec_ ~duration_us ~counters =
  {
    latencies = rec_.hist;
    successes = rec_.succ;
    failures = rec_.fail + rec_.in_flight;
    offered = rec_.sent;
    duration_us;
    throughput_rps = float_of_int rec_.succ_in_window /. (duration_us /. 1e6);
    counters;
  }

(* Grace period for stragglers. *)
let drain sim = Engine.run_until sim (Engine.now sim +. 30_000_000.0)

let finish sim rec_ ~duration_us =
  drain sim;
  result_of rec_ ~duration_us ~counters:(Engine.counters sim)

(* Progress callbacks fire every [progress_stride] offered requests (a
   power of two so the check is a mask), not per completion — million-
   request benches poll a ticker without touching the per-request path. *)
let progress_stride = 1 lsl 16

let report_progress progress rec_ =
  match progress with
  | Some f when rec_.sent > 0 && rec_.sent land (progress_stride - 1) = 0 ->
      f ~sent:rec_.sent ~completed:(rec_.succ + rec_.fail)
  | _ -> ()

let run_closed_loop sim ~entry ~gen_req ~connections ~duration_us ?warmup_us ?(think_us = 0.0)
    ?(seed = 0) ?progress () =
  let warmup_us = match warmup_us with Some w -> w | None -> duration_us *. 0.1 in
  let rng = Rng.create (4242 + seed) in
  let rec_ = new_recorder () in
  let t_start = Engine.now sim in
  let t_open = t_start +. warmup_us in
  let t_close = t_open +. duration_us in
  let rec connection_loop () =
    if Engine.now sim < t_close then begin
      let req = gen_req rng in
      let sent_in_window = Engine.now sim >= t_open in
      if sent_in_window then begin
        record_sent rec_;
        report_progress progress rec_
      end;
      Engine.submit sim ~entry ~req ~on_done:(fun ~latency_us ~ok ->
          if sent_in_window then record_done sim rec_ ~t_close ~latency_us ~ok;
          if think_us > 0.0 then Engine.schedule sim think_us connection_loop else connection_loop ())
    end
  in
  for _ = 1 to connections do
    connection_loop ()
  done;
  Engine.run_until sim t_close;
  finish sim rec_ ~duration_us

type phase = {
  ph_name : string;
  ph_duration_us : float;
  ph_rate_rps : float;
  ph_gen_req : Rng.t -> string;
}

type phased_result = { overall : result; per_phase : (string * result) list }

let run_phased sim ~entry ~phases ?(on_sample = fun ~ts:_ ~latency_us:_ ~ok:_ ~phase:_ -> ())
    ?(seed = 0) () =
  let recs = List.map (fun ph -> (ph, new_recorder ())) phases in
  (* Phases run back to back with no warm-up gaps: the stream the online
     controller observes is continuous, and the shift between phases is the
     drift it must detect.  Requests are attributed to the phase that sent
     them, even if they complete after the boundary. *)
  let rec run_phase i = function
    | [] -> ()
    | (ph, rec_) :: rest ->
        let rng = Rng.create (9001 + (2 * i) + seed) in
        let arrival_rng = Rng.create (9002 + (2 * i) + seed) in
        let t_close = Engine.now sim +. ph.ph_duration_us in
        let mean_gap = 1e6 /. ph.ph_rate_rps in
        let rec arrival () =
          if Engine.now sim < t_close then begin
            let req = ph.ph_gen_req rng in
            record_sent rec_;
            Engine.submit sim ~entry ~req ~on_done:(fun ~latency_us ~ok ->
                on_sample ~ts:(Engine.now sim) ~latency_us ~ok ~phase:ph.ph_name;
                record_done sim rec_ ~t_close ~latency_us ~ok);
            Engine.schedule sim (Rng.exponential arrival_rng mean_gap) arrival
          end
        in
        arrival ();
        Engine.run_until sim t_close;
        run_phase (i + 1) rest
  in
  run_phase 0 recs;
  drain sim;
  let counters = Engine.counters sim in
  let per_phase =
    List.map
      (fun (ph, rec_) -> (ph.ph_name, result_of rec_ ~duration_us:ph.ph_duration_us ~counters))
      recs
  in
  let total_us = List.fold_left (fun a ph -> a +. ph.ph_duration_us) 0.0 phases in
  let all = Histogram.create () in
  List.iter (fun (_, r) -> Histogram.merge_into ~dst:all r.latencies) per_phase;
  let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 per_phase in
  let overall =
    {
      latencies = all;
      successes = sum (fun r -> r.successes);
      failures = sum (fun r -> r.failures);
      offered = sum (fun r -> r.offered);
      duration_us = total_us;
      throughput_rps =
        List.fold_left (fun a (_, r) -> a +. (r.throughput_rps *. r.duration_us)) 0.0 per_phase
        /. Float.max 1.0 total_us;
      counters;
    }
  in
  { overall; per_phase }

let run_open_loop sim ~entry ~gen_req ~rate_rps ~duration_us ?warmup_us ?(seed = 0) ?via
    ?progress () =
  let warmup_us = match warmup_us with Some w -> w | None -> duration_us *. 0.1 in
  let submit =
    match via with
    | Some f -> f
    | None -> fun ~entry ~req ~on_done -> Engine.submit sim ~entry ~req ~on_done
  in
  let rng = Rng.create (777 + seed) in
  let arrival_rng = Rng.create (778 + seed) in
  let rec_ = new_recorder () in
  let t_start = Engine.now sim in
  let t_open = t_start +. warmup_us in
  let t_close = t_open +. duration_us in
  let mean_gap = 1e6 /. rate_rps in
  let rec arrival () =
    if Engine.now sim < t_close then begin
      let req = gen_req rng in
      let in_window = Engine.now sim >= t_open in
      if in_window then begin
        record_sent rec_;
        report_progress progress rec_
      end;
      submit ~entry ~req ~on_done:(fun ~latency_us ~ok ->
          if in_window then record_done sim rec_ ~t_close ~latency_us ~ok);
      Engine.schedule sim (Rng.exponential arrival_rng mean_gap) arrival
    end
  in
  arrival ();
  Engine.run_until sim t_close;
  finish sim rec_ ~duration_us
