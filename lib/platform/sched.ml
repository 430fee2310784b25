(* 4096 buckets of 256 µs: a window of ≈1.05 virtual seconds, wide enough
   for the engine's CPU ticks and short I/O waits. *)
let slots = 4096

let mask = slots - 1

let granularity = 256.0

(* Bucket index of the farthest representable time.  Every time at or past
   it (including [infinity]) saturates here, far beyond any cursor the
   wheel reaches in practice, so such events wait in the overflow heap and
   are ordered there by (time, seq). *)
let max_index = max_int / 4

let max_quotient = float_of_int max_index

(* All-float, so OCaml stores it flat: the clock advances on every pop
   without boxing a float. *)
type clock = { mutable now : float; mutable last_time : float }

type 'a t = {
  buckets : int array;  (* slot -> head event id, -1 when empty *)
  occ : int array;  (* occupancy bitmap, 32 slots per word *)
  mutable cur : int;  (* absolute bucket index of the cursor *)
  mutable wcount : int;  (* events currently parked in wheel buckets *)
  (* Event records: structure-of-arrays, indexed by event id.  ev_time is a
     flat float array (unboxed), ev_next doubles as the bucket chain link
     and the freelist link. *)
  mutable ev_time : float array;
  mutable ev_seq : int array;
  mutable ev_tag : int array;
  mutable ev_next : int array;
  mutable ev_payload : 'a array;
  dummy : 'a;
  mutable free_head : int;
  (* Due heap: ids of events at or before the cursor, ordered (time, seq).
     Every event passes through here, which restores the exact global pop
     order of a single binary heap. *)
  mutable due : int array;
  mutable due_len : int;
  (* Overflow heap: ids of events beyond the wheel window, same order. *)
  mutable ovf : int array;
  mutable ovf_len : int;
  mutable len : int;
  mutable next_seq : int;
  mutable scheduled : int;
  mutable popped : int;
  mutable peak : int;
  clock : clock;
  mutable last_tag : int;
}

let create ~dummy () =
  {
    buckets = Array.make slots (-1);
    occ = Array.make (slots lsr 5) 0;
    cur = 0;
    wcount = 0;
    ev_time = [||];
    ev_seq = [||];
    ev_tag = [||];
    ev_next = [||];
    ev_payload = [||];
    dummy;
    free_head = -1;
    due = Array.make 64 (-1);
    due_len = 0;
    ovf = Array.make 64 (-1);
    ovf_len = 0;
    len = 0;
    next_seq = 0;
    scheduled = 0;
    popped = 0;
    peak = 0;
    clock = { now = 0.0; last_time = 0.0 };
    last_tag = 0;
  }

let length w = w.len

let is_empty t = length t = 0

(* --- internals --- *)

let occ_set w s = w.occ.(s lsr 5) <- w.occ.(s lsr 5) lor (1 lsl (s land 31))

let occ_clear w s = w.occ.(s lsr 5) <- w.occ.(s lsr 5) land lnot (1 lsl (s land 31))

let lowest_bit_index v =
  let v = v land -v in
  let i = ref 0 in
  let x = ref v in
  while !x land 1 = 0 do
    incr i;
    x := !x lsr 1
  done;
  !i

(* Absolute bucket index of an occupied slot: the unique value ≡ s
   (mod slots) in (cur, cur + slots] — every parked event lives in that
   window, so the mapping is exact. *)
let abs_of_slot w s =
  let cs = w.cur land mask in
  let d = (s - cs + slots) land mask in
  w.cur + (if d = 0 then slots else d)

(* Next occupied absolute bucket index strictly after the cursor, or
   max_int when no events are parked in the wheel.  Scans the occupancy
   bitmap word-wise in circular slot order starting just past the cursor;
   a wrapped word's low bits map behind the high bits of earlier words
   only for the starting word, whose high bits were already checked. *)
let next_occupied w =
  if w.wcount = 0 then max_int
  else begin
    let words = slots lsr 5 in
    let start = (w.cur + 1) land mask in
    let rec scan wi remaining bits =
      if remaining <= 0 then max_int
      else begin
        let v = w.occ.(wi) land bits in
        if v <> 0 then abs_of_slot w ((wi lsl 5) lor lowest_bit_index v)
        else scan ((wi + 1) mod words) (remaining - 32) (-1)
      end
    in
    scan (start lsr 5) (slots + 32) ((-1) lsl (start land 31))
  end

(* Times are ≥ 0 and not NaN ({!schedule} enforces both).  The quotient is
   compared before the conversion because [int_of_float] of a value past
   [max_int] is unspecified (negative on amd64), which would misfile a
   far-future event as due now. *)
let[@inline] bucket_index time =
  let q = time /. granularity in
  if q >= max_quotient then max_index else int_of_float q

let ev_lt w a b =
  let ta = w.ev_time.(a) and tb = w.ev_time.(b) in
  ta < tb || (ta = tb && w.ev_seq.(a) < w.ev_seq.(b))

(* Due and overflow heaps: binary min-heaps of event ids keyed by
   (time, seq) out of the SoA records.  Two hand-specialised copies so the
   hot loops touch only int and unboxed-float arrays. *)

let due_push w id =
  if w.due_len = Array.length w.due then begin
    let nd = Array.make (2 * Array.length w.due) (-1) in
    Array.blit w.due 0 nd 0 w.due_len;
    w.due <- nd
  end;
  let i = ref w.due_len in
  w.due_len <- w.due_len + 1;
  w.due.(!i) <- id;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if ev_lt w w.due.(!i) w.due.(parent) then begin
      let tmp = w.due.(parent) in
      w.due.(parent) <- w.due.(!i);
      w.due.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let due_pop w =
  let top = w.due.(0) in
  w.due_len <- w.due_len - 1;
  if w.due_len > 0 then begin
    w.due.(0) <- w.due.(w.due_len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < w.due_len && ev_lt w w.due.(l) w.due.(!smallest) then smallest := l;
      if r < w.due_len && ev_lt w w.due.(r) w.due.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = w.due.(!smallest) in
        w.due.(!smallest) <- w.due.(!i);
        w.due.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  top

let ovf_push w id =
  if w.ovf_len = Array.length w.ovf then begin
    let nd = Array.make (2 * Array.length w.ovf) (-1) in
    Array.blit w.ovf 0 nd 0 w.ovf_len;
    w.ovf <- nd
  end;
  let i = ref w.ovf_len in
  w.ovf_len <- w.ovf_len + 1;
  w.ovf.(!i) <- id;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if ev_lt w w.ovf.(!i) w.ovf.(parent) then begin
      let tmp = w.ovf.(parent) in
      w.ovf.(parent) <- w.ovf.(!i);
      w.ovf.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let ovf_pop w =
  let top = w.ovf.(0) in
  w.ovf_len <- w.ovf_len - 1;
  if w.ovf_len > 0 then begin
    w.ovf.(0) <- w.ovf.(w.ovf_len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < w.ovf_len && ev_lt w w.ovf.(l) w.ovf.(!smallest) then smallest := l;
      if r < w.ovf_len && ev_lt w w.ovf.(r) w.ovf.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = w.ovf.(!smallest) in
        w.ovf.(!smallest) <- w.ovf.(!i);
        w.ovf.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  top

(* --- freelist --- *)

let grow_events w =
  let cap = Array.length w.ev_time in
  let ncap = if cap = 0 then 256 else cap * 2 in
  let nt = Array.make ncap 0.0 in
  let ns = Array.make ncap 0 in
  let ng = Array.make ncap 0 in
  let nn = Array.make ncap (-1) in
  let np = Array.make ncap w.dummy in
  Array.blit w.ev_time 0 nt 0 cap;
  Array.blit w.ev_seq 0 ns 0 cap;
  Array.blit w.ev_tag 0 ng 0 cap;
  Array.blit w.ev_next 0 nn 0 cap;
  Array.blit w.ev_payload 0 np 0 cap;
  w.ev_time <- nt;
  w.ev_seq <- ns;
  w.ev_tag <- ng;
  w.ev_next <- nn;
  w.ev_payload <- np;
  for i = cap to ncap - 2 do
    nn.(i) <- i + 1
  done;
  nn.(ncap - 1) <- w.free_head;
  w.free_head <- cap

let alloc w =
  if w.free_head < 0 then grow_events w;
  let id = w.free_head in
  w.free_head <- w.ev_next.(id);
  id

let release w id =
  w.ev_payload.(id) <- w.dummy;
  w.ev_next.(id) <- w.free_head;
  w.free_head <- id

(* --- operations --- *)

(* Inlined into both entry points, so a time computed by [schedule_in] is
   never boxed. *)
let[@inline] insert w time tag payload =
  if time <> time then invalid_arg "Sched.schedule: time is NaN";
  let time = if time < 0.0 then 0.0 else time in
  let id = alloc w in
  w.ev_time.(id) <- time;
  w.ev_seq.(id) <- w.next_seq;
  w.next_seq <- w.next_seq + 1;
  w.ev_tag.(id) <- tag;
  w.ev_payload.(id) <- payload;
  w.len <- w.len + 1;
  w.scheduled <- w.scheduled + 1;
  if w.len > w.peak then w.peak <- w.len;
  let idx = bucket_index time in
  if idx <= w.cur then due_push w id
  else if idx - w.cur <= slots then begin
    let s = idx land mask in
    w.ev_next.(id) <- w.buckets.(s);
    w.buckets.(s) <- id;
    occ_set w s;
    w.wcount <- w.wcount + 1
  end
  else ovf_push w id

let schedule w ~time ~tag payload = insert w time tag payload

(* Refill the due heap: advance the cursor to the earliest pending bucket
   (wheel or overflow) and drain everything at that index.  Returns false
   only when the scheduler is empty.  Every advance lands on an occupied
   index, so no event is ever skipped and pops stay globally ordered. *)
let ensure_due w =
  if w.due_len > 0 then true
  else if w.len = 0 then false
  else begin
    let nw = next_occupied w in
    let ov = if w.ovf_len = 0 then max_int else bucket_index w.ev_time.(w.ovf.(0)) in
    let target = if nw < ov then nw else ov in
    w.cur <- target;
    let s = target land mask in
    let rec drain id =
      if id >= 0 then begin
        let nx = w.ev_next.(id) in
        due_push w id;
        w.wcount <- w.wcount - 1;
        drain nx
      end
    in
    if w.buckets.(s) >= 0 then begin
      drain w.buckets.(s);
      w.buckets.(s) <- -1;
      occ_clear w s
    end;
    while w.ovf_len > 0 && bucket_index w.ev_time.(w.ovf.(0)) <= w.cur do
      due_push w (ovf_pop w)
    done;
    true
  end

let next_time w = if ensure_due w then w.ev_time.(w.due.(0)) else infinity

let has_due w limit = ensure_due w && w.ev_time.(w.due.(0)) <= limit

let schedule_in w ~delay ~tag payload =
  let delay = if delay < 0.0 then 0.0 else delay in
  insert w (w.clock.now +. delay) tag payload

let advance w t = if t > w.clock.now then w.clock.now <- t

let pop_exn w =
  if not (ensure_due w) then raise Not_found;
  let id = due_pop w in
  w.len <- w.len - 1;
  w.popped <- w.popped + 1;
  let t = w.ev_time.(id) in
  w.clock.last_time <- t;
  if t > w.clock.now then w.clock.now <- t;
  w.last_tag <- w.ev_tag.(id);
  let p = w.ev_payload.(id) in
  release w id;
  p

let last_time w = w.clock.last_time

let clock w = w.clock

let last_tag w = w.last_tag

let pop w =
  if is_empty w then None
  else begin
    let p = pop_exn w in
    Some (w.clock.last_time, w.last_tag, p)
  end

let scheduled_total w = w.scheduled

let popped_total w = w.popped

let peak_length w = w.peak
