module Engine = Quilt_platform.Engine

type span = {
  sp_rid : int;
  sp_fn : string;
  sp_caller : string option;
  sp_cid : int;
  sp_node : int;
  sp_send : float;
  sp_enq : float;
  sp_start : float;
  sp_end : float;
  sp_cpu_us : float;
  sp_mem_mb : float;
  sp_async : bool;
  sp_local : bool;
  sp_ok : bool;
}

let queue_us s = Float.max 0.0 (s.sp_start -. s.sp_enq)
let hop_us s = Float.max 0.0 (s.sp_enq -. s.sp_send)

(* Structure of arrays: float columns stay unboxed (flat float arrays),
   names are interned ids, the three booleans share one flags byte. *)
type t = {
  cap : int;  (* power of two *)
  mask : int;
  period : int;
  seed : int;
  c_rid : int array;
  c_fn : int array;
  c_caller : int array;  (* interned name, -1 = client *)
  c_cid : int array;
  c_node : int array;
  c_send : float array;
  c_enq : float array;
  c_start : float array;
  c_end : float array;
  c_cpu : float array;
  c_mem : float array;
  c_flags : Bytes.t;
  name_ids : (string, int) Hashtbl.t;
  mutable names : string array;  (* id -> name, first n_names entries live *)
  mutable n_names : int;
  mutable written : int;
  mutable seen : int;
  mutable sampled : int;
}

let fl_async = 1
let fl_local = 2
let fl_ok = 4

let rec pow2_ge n acc = if acc >= n then acc else pow2_ge n (acc * 2)

let create ?(capacity = 1 lsl 18) ?(sample_period = 1) ?(seed = 0) () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be positive";
  if sample_period < 1 then invalid_arg "Recorder.create: sample_period must be positive";
  let cap = pow2_ge capacity 1 in
  {
    cap;
    mask = cap - 1;
    period = sample_period;
    seed;
    c_rid = Array.make cap 0;
    c_fn = Array.make cap 0;
    c_caller = Array.make cap (-1);
    c_cid = Array.make cap 0;
    c_node = Array.make cap 0;
    c_send = Array.make cap 0.0;
    c_enq = Array.make cap 0.0;
    c_start = Array.make cap 0.0;
    c_end = Array.make cap 0.0;
    c_cpu = Array.make cap 0.0;
    c_mem = Array.make cap 0.0;
    c_flags = Bytes.make cap '\000';
    name_ids = Hashtbl.create 64;
    names = Array.make 64 "";
    n_names = 0;
    written = 0;
    seen = 0;
    sampled = 0;
  }

let sample_period t = t.period

let intern t s =
  match Hashtbl.find_opt t.name_ids s with
  | Some id -> id
  | None ->
      let id = t.n_names in
      if id = Array.length t.names then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit t.names 0 bigger 0 id;
        t.names <- bigger
      end;
      t.names.(id) <- s;
      t.n_names <- id + 1;
      Hashtbl.add t.name_ids s id;
      id

(* splitmix64 finalizer: a pure, well-mixed hash of (seed, rid) so the
   sampling verdict is a function of the ids alone — equal seeds over
   equal traffic sample identical request sets.  Inlined into [sample], so
   the Int64 arithmetic stays unboxed: the verdict, taken on every
   request, allocates nothing. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let sample t rid =
  t.seen <- t.seen + 1;
  let hit =
    t.period = 1
    ||
    let h =
      mix64 (Int64.add (Int64.of_int rid) (Int64.mul (Int64.of_int (t.seed + 1)) 0x9E3779B97F4A7C15L))
    in
    Int64.to_int h land max_int mod t.period = 0
  in
  if hit then t.sampled <- t.sampled + 1;
  hit

let emit t ~rid ~fn ~caller ~cid ~node ~t_send ~t_enq ~t_start ~t_end ~cpu_us ~mem_mb ~async
    ~local ~ok =
  let i = t.written land t.mask in
  t.c_rid.(i) <- rid;
  t.c_fn.(i) <- intern t fn;
  (t.c_caller.(i) <- (match caller with Some c -> intern t c | None -> -1));
  t.c_cid.(i) <- cid;
  t.c_node.(i) <- node;
  t.c_send.(i) <- t_send;
  t.c_enq.(i) <- t_enq;
  t.c_start.(i) <- t_start;
  t.c_end.(i) <- t_end;
  t.c_cpu.(i) <- cpu_us;
  t.c_mem.(i) <- mem_mb;
  Bytes.unsafe_set t.c_flags i
    (Char.unsafe_chr
       ((if async then fl_async else 0) lor (if local then fl_local else 0)
       lor if ok then fl_ok else 0));
  t.written <- t.written + 1

let sink t =
  { Engine.sk_sample = (fun rid -> sample t rid); sk_task = emit t }

let attach t engine = Engine.set_span_sink engine (Some (sink t))
let detach engine = Engine.set_span_sink engine None

let length t = min t.written t.cap
let recorded t = t.written
let dropped t = max 0 (t.written - t.cap)
let seen_roots t = t.seen
let sampled_roots t = t.sampled

let get t i =
  let n = length t in
  if i < 0 || i >= n then invalid_arg "Recorder.get: index out of range";
  let j = (t.written - n + i) land t.mask in
  let flags = Char.code (Bytes.get t.c_flags j) in
  {
    sp_rid = t.c_rid.(j);
    sp_fn = t.names.(t.c_fn.(j));
    sp_caller = (let c = t.c_caller.(j) in if c < 0 then None else Some t.names.(c));
    sp_cid = t.c_cid.(j);
    sp_node = t.c_node.(j);
    sp_send = t.c_send.(j);
    sp_enq = t.c_enq.(j);
    sp_start = t.c_start.(j);
    sp_end = t.c_end.(j);
    sp_cpu_us = t.c_cpu.(j);
    sp_mem_mb = t.c_mem.(j);
    sp_async = flags land fl_async <> 0;
    sp_local = flags land fl_local <> 0;
    sp_ok = flags land fl_ok <> 0;
  }

let iter ?(since = neg_infinity) t f =
  let n = length t in
  for i = 0 to n - 1 do
    let j = (t.written - n + i) land t.mask in
    if t.c_end.(j) >= since then f (get t i)
  done

let to_list ?since t =
  let acc = ref [] in
  iter ?since t (fun s -> acc := s :: !acc);
  List.rev !acc
