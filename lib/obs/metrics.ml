module Histogram = Quilt_util.Histogram
module Json = Quilt_util.Json
module Engine = Quilt_platform.Engine
module Loadgen = Quilt_platform.Loadgen

type value = Counter of int ref | Gauge of float ref | Hist of Histogram.t

type instrument = {
  i_name : string;
  i_labels : (string * string) list;
  i_value : value;
}

type t = {
  tbl : (string, instrument) Hashtbl.t;  (* keyed by name + canonical labels *)
  mutable order : string list;  (* registration order, reversed *)
}

type counter = int ref
type gauge = float ref
type histogram = Histogram.t

let create () = { tbl = Hashtbl.create 32; order = [] }

let canonical_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let key name labels =
  let b = Buffer.create 32 in
  Buffer.add_string b name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '\x00';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v)
    labels;
  Buffer.contents b

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Hist _ -> "histogram"

let register t ~labels name fresh =
  let labels = canonical_labels labels in
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some i ->
      if kind_name i.i_value <> kind_name (fresh ()) then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s" name (kind_name i.i_value));
      i.i_value
  | None ->
      let i = { i_name = name; i_labels = labels; i_value = fresh () } in
      Hashtbl.add t.tbl k i;
      t.order <- k :: t.order;
      i.i_value

let counter t ?(labels = []) name =
  match register t ~labels name (fun () -> Counter (ref 0)) with
  | Counter r -> r
  | _ -> assert false

let inc c by = c := !c + by
let counter_value c = !c

let gauge t ?(labels = []) name =
  match register t ~labels name (fun () -> Gauge (ref 0.0)) with
  | Gauge r -> r
  | _ -> assert false

let set g v = g := v
let gauge_value g = !g

let histogram t ?(labels = []) name =
  match register t ~labels name (fun () -> Hist (Histogram.create ())) with
  | Hist h -> h
  | _ -> assert false

let observe h v = Histogram.record h v
let hist h = h

(* --- Bridges --- *)

let record_engine t ?(labels = []) engine =
  let c = Engine.counters engine in
  let add name v = inc (counter t ~labels name) v in
  add "engine_cold_starts" c.Engine.cold_starts;
  add "engine_oom_kills" c.Engine.oom_kills;
  add "engine_completed" c.Engine.completed;
  add "engine_failed" c.Engine.failed;
  add "engine_remote_invocations" c.Engine.remote_invocations;
  add "engine_local_invocations" c.Engine.local_invocations;
  add "engine_crash_kills" c.Engine.crash_kills;
  add "engine_net_drops" c.Engine.net_drops;
  add "engine_hop_timeouts" c.Engine.hop_timeouts;
  add "engine_events" (Engine.events_processed engine);
  set (gauge t ~labels "engine_peak_queue_depth") (float_of_int (Engine.peak_queue_depth engine))

let record_result t ?(labels = []) (r : Loadgen.result) =
  inc (counter t ~labels "requests_offered") r.Loadgen.offered;
  inc (counter t ~labels "requests_succeeded") r.Loadgen.successes;
  inc (counter t ~labels "requests_failed") r.Loadgen.failures;
  set (gauge t ~labels "throughput_rps") r.Loadgen.throughput_rps;
  Histogram.merge_into ~dst:(histogram t ~labels "latency_us") r.Loadgen.latencies

let record_recorder t ?(labels = []) r =
  inc (counter t ~labels "obs_spans_recorded") (Recorder.recorded r);
  inc (counter t ~labels "obs_spans_dropped") (Recorder.dropped r);
  inc (counter t ~labels "obs_roots_seen") (Recorder.seen_roots r);
  inc (counter t ~labels "obs_roots_sampled") (Recorder.sampled_roots r);
  let queue = histogram t ~labels "obs_span_queue_us" in
  let cpu = histogram t ~labels "obs_span_cpu_us" in
  Recorder.iter r (fun s ->
      if not s.Recorder.sp_local then observe queue (Recorder.queue_us s);
      observe cpu s.Recorder.sp_cpu_us)

(* --- Snapshot --- *)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let hist_json (i : instrument) h =
  let buckets = ref [] in
  Histogram.iter_buckets h (fun ~lo ~hi ~count ->
      buckets := Json.List [ Json.Float lo; Json.Float hi; Json.Int count ] :: !buckets);
  Json.Obj
    [
      ("name", Json.String i.i_name);
      ("labels", labels_json i.i_labels);
      ("count", Json.Int (Histogram.count h));
      ("mean", Json.Float (Histogram.mean h));
      ("p50", Json.Float (Histogram.median h));
      ("p99", Json.Float (Histogram.quantile h 0.99));
      ("max", Json.Float (Histogram.max_value h));
      ("buckets", Json.List (List.rev !buckets));
    ]

let snapshot t =
  let ordered = List.rev t.order in
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun k ->
      let i = Hashtbl.find t.tbl k in
      let base v =
        Json.Obj [ ("name", Json.String i.i_name); ("labels", labels_json i.i_labels); ("value", v) ]
      in
      match i.i_value with
      | Counter r -> counters := base (Json.Int !r) :: !counters
      | Gauge r -> gauges := base (Json.Float !r) :: !gauges
      | Hist h -> hists := hist_json i h :: !hists)
    ordered;
  Json.Obj
    [
      ("counters", Json.List (List.rev !counters));
      ("gauges", Json.List (List.rev !gauges));
      ("histograms", Json.List (List.rev !hists));
    ]
