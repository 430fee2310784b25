module Histogram = Quilt_util.Histogram
module Engine = Quilt_platform.Engine

let quantile = 0.99
let max_fail_delta = 0.05
let min_samples = 20

(* Post/pre tail-latency ratio above which a switch is judged a regression,
   generous enough that the tail of the rolling update's cold-start
   transient is not mistaken for one. *)
let regress_ratio = 2.0

type stats = { n : int; fail_rate : float; tail_us : float }

let stats_of samples =
  let n = List.length samples in
  let fails = List.length (List.filter (fun (_, ok) -> not ok) samples) in
  let hist = Histogram.create () in
  List.iter (fun (lat, ok) -> if ok then Histogram.record hist lat) samples;
  let tail = if Histogram.count hist = 0 then 0.0 else Histogram.quantile hist quantile in
  { n; fail_rate = (if n = 0 then 0.0 else float_of_int fails /. float_of_int n); tail_us = tail }

type samples = { mutable rev : (float * float * bool) list }

let samples () = { rev = [] }
let prune s ~before = s.rev <- List.filter (fun (ts, _, _) -> ts >= before) s.rev

let stats_between s ~from_ ~to_ =
  stats_of
    (List.filter_map
       (fun (ts, lat, ok) -> if ts >= from_ && ts <= to_ then Some (lat, ok) else None)
       s.rev)

let supervise engine ?entry s ~tick_us ~until tick =
  Engine.add_completion_hook engine (fun ~entry:e ~latency_us ~ok ->
      if Option.fold ~none:true ~some:(String.equal e) entry then
        s.rev <- (Engine.now engine, latency_us, ok) :: s.rev);
  let rec loop () =
    if Engine.now engine <= until then begin
      tick ();
      (* Stop rescheduling past [until] so Engine.drain terminates. *)
      if Engine.now engine +. tick_us <= until then Engine.schedule engine tick_us loop
    end
  in
  Engine.schedule engine tick_us loop

type verdict = Pass | Regress of string | Inconclusive of string

let judge ~pre ~post =
  if post.n < min_samples then
    Inconclusive (Printf.sprintf "only %d post-switch samples (< %d)" post.n min_samples)
  else if pre.n < min_samples then
    Inconclusive (Printf.sprintf "only %d pre-switch samples (< %d)" pre.n min_samples)
  else if post.fail_rate > pre.fail_rate +. max_fail_delta then
    Regress
      (Printf.sprintf "failure rate %.1f%% -> %.1f%%" (100.0 *. pre.fail_rate)
         (100.0 *. post.fail_rate))
  else if pre.tail_us > 0.0 && post.tail_us /. pre.tail_us > regress_ratio then
    Regress
      (Printf.sprintf "p%.0f %.1f ms -> %.1f ms (x%.2f)" (100.0 *. quantile)
         (pre.tail_us /. 1000.0) (post.tail_us /. 1000.0) (post.tail_us /. pre.tail_us))
  else Pass
