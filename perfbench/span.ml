(* Monotonic wall clock and the benchmark's own span recorder.

   Spans are recorded from outside the program, around calls into each
   layer's public functions.  With recording off, [with_span] is one branch
   and the call, so the untraced run pays nothing measurable.  Spans are kept
   in memory and written out once, at the end of the run. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* [f ()] and its wall time in seconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

type t = {
  sid : int;
  name : string;  (** [layer.call], e.g. ["cluster.decide.exact"]. *)
  key : string;  (** Workflow, scenario or request the call worked on. *)
  parent : int;  (** [-1] at top level. *)
  t0 : int64;
  mutable t1 : int64;
}

let enabled = ref false
let recorded : t list ref = ref []
let next_sid = ref 0
let stack : int list ref = ref []

let with_span ?(key = "") name f =
  if not !enabled then f ()
  else begin
    let sid = !next_sid in
    incr next_sid;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { sid; name; key; parent; t0 = now_ns (); t1 = 0L } in
    stack := sid :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now_ns ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

let duration_s s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e9

let layer_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time per layer: a span's duration minus the part its child spans
   cover, summed over the spans of each layer. *)
let self_seconds_by_layer () =
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  let child_time = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent >= 0 then add child_time s.parent (duration_s s)) !recorded;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.sid) in
      add by_layer (layer_of s.name) (duration_s s -. covered))
    !recorded;
  by_layer

(* (count, total seconds) of the spans whose name starts with [prefix]. *)
let totals prefix =
  let n = String.length prefix in
  List.fold_left
    (fun (k, t) s ->
      if String.length s.name >= n && String.sub s.name 0 n = prefix then (k + 1, t +. duration_s s)
      else (k, t))
    (0, 0.0) !recorded

(* Mean span duration in microseconds; 0 when there is no such span. *)
let mean_us prefix =
  let n, t = totals prefix in
  if n = 0 then 0.0 else t /. float_of_int n *. 1e6

(* Chrome trace-event JSON: one complete event per span, with its parent
   span and workflow/request id as arguments. *)
let write_chrome path =
  let base =
    List.fold_left (fun m s -> if Int64.compare s.t0 m < 0 then s.t0 else m) Int64.max_int !recorded
  in
  let us t = Int64.to_float (Int64.sub t base) /. 1e3 in
  let esc s = Quilt_util.Json.to_string (Quilt_util.Json.String s) in
  let oc = open_out_bin path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"sid\":%d,\"parent\":%d,\"id\":%s}}"
        (esc s.name) (esc (layer_of s.name)) (us s.t0) (us s.t1 -. us s.t0) s.sid s.parent (esc s.key))
    (List.rev !recorded);
  output_string oc "\n]}\n";
  close_out oc
