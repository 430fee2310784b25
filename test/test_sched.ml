(* The timer-wheel scheduler must pop in exactly the order of a binary heap
   that is FIFO on ties, as the seed's event queue was: nondecreasing
   (time, seq), regardless of how events straddle the wheel window, the
   overflow heap, or already-passed bucket indices.  The reference model is
   [Quilt_util.Heap], a float-keyed binary heap with that tie order, which
   the util tests pin on its own. *)

module Sched = Quilt_platform.Sched
module Heap = Quilt_util.Heap

let make () = Sched.create ~dummy:(-1) ()

let drain_all s =
  let rec go acc =
    match Sched.pop s with
    | None -> List.rev acc
    | Some (t, tag, p) -> go ((t, tag, p) :: acc)
  in
  go []

let payloads s = List.map (fun (_, _, p) -> p) (drain_all s)

(* --- units --- *)

let test_fifo_on_equal_times () =
  let s = make () in
  for i = 0 to 9 do
    Sched.schedule s ~time:42.0 ~tag:i i
  done;
  let popped = drain_all s in
  Alcotest.(check (list int))
    "insertion order on ties"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map (fun (_, _, p) -> p) popped);
  List.iter (fun (t, _, _) -> Alcotest.(check (float 0.0)) "time kept" 42.0 t) popped

(* Events far past the wheel window (≈1.05 virtual seconds) go to the
   overflow heap and must cascade back in order. *)
let test_overflow_far_future () =
  let s = make () in
  Sched.schedule s ~time:2_000_000_000.0 ~tag:0 1;
  Sched.schedule s ~time:5.0 ~tag:0 2;
  Sched.schedule s ~time:900_000_000.0 ~tag:0 3;
  Sched.schedule s ~time:1_000_000.0 ~tag:0 4;
  Alcotest.(check (list int)) "cascade order" [ 2; 4; 3; 1 ] (payloads s)

(* Times whose bucket index does not fit in an int — 1.2e21 µs is past
   [max_int] buckets of 256 µs — and [infinity] still pop after every
   nearer event, in (time, seq) order among themselves.  NaN has no place
   in the order and is refused without touching the queue. *)
let test_beyond_int_range () =
  let s = make () in
  Sched.schedule s ~time:1000.0 ~tag:0 1;
  Sched.schedule s ~time:1.2e21 ~tag:0 2;
  Sched.schedule s ~time:infinity ~tag:0 3;
  Sched.schedule s ~time:5.0 ~tag:0 4;
  Sched.schedule s ~time:1.1e21 ~tag:0 5;
  Sched.schedule s ~time:infinity ~tag:0 6;
  Alcotest.(check (float 0.0)) "next is the nearest" 5.0 (Sched.next_time s);
  Alcotest.(check (list int)) "far events last" [ 4; 1; 5; 2; 3; 6 ] (payloads s);
  Alcotest.check_raises "NaN refused" (Invalid_argument "Sched.schedule: time is NaN") (fun () ->
      Sched.schedule s ~time:Float.nan ~tag:0 7);
  Alcotest.(check int) "nothing queued" 0 (Sched.length s);
  Alcotest.(check int) "nothing counted" 6 (Sched.scheduled_total s);
  (* The cursor sits at the saturated index now; nearer events still
     order correctly behind it. *)
  Sched.schedule s ~time:infinity ~tag:0 8;
  Sched.schedule s ~time:7.0 ~tag:0 9;
  Alcotest.(check (list int)) "after a saturated drain" [ 9; 8 ] (payloads s)

(* Scheduling behind the cursor (a time at or before an already-popped
   bucket) must not lose the event or break ordering. *)
let test_schedule_behind_cursor () =
  let s = make () in
  Sched.schedule s ~time:500_000.0 ~tag:0 1;
  Alcotest.(check int) "first pop" 1 (Sched.pop_exn s);
  Sched.schedule s ~time:3.0 ~tag:0 2;
  Sched.schedule s ~time:400_000.0 ~tag:0 3;
  Sched.schedule s ~time:600_000.0 ~tag:0 4;
  Alcotest.(check (list int)) "past events pop first" [ 2; 3; 4 ] (payloads s)

let test_next_time_and_stats () =
  let s = make () in
  Alcotest.(check (float 0.0)) "empty: infinity" infinity (Sched.next_time s);
  Sched.schedule s ~time:10.0 ~tag:7 1;
  Sched.schedule s ~time:4.0 ~tag:8 2;
  Sched.schedule s ~time:20.0 ~tag:9 3;
  Alcotest.(check (float 0.0)) "min pending" 4.0 (Sched.next_time s);
  Alcotest.(check int) "length" 3 (Sched.length s);
  let p = Sched.pop_exn s in
  Alcotest.(check int) "min payload" 2 p;
  Alcotest.(check (float 0.0)) "last_time" 4.0 (Sched.last_time s);
  Alcotest.(check int) "last_tag" 8 (Sched.last_tag s);
  ignore (drain_all s);
  Alcotest.(check int) "scheduled_total" 3 (Sched.scheduled_total s);
  Alcotest.(check int) "popped_total" 3 (Sched.popped_total s);
  Alcotest.(check int) "peak_length" 3 (Sched.peak_length s);
  Alcotest.(check bool) "empty again" true (Sched.is_empty s)

(* Thousands of events across many buckets stress the freelist growth and
   the occupancy-bitmap scan. *)
let test_bulk_reverse_order () =
  let s = make () in
  let n = 5_000 in
  for i = n - 1 downto 0 do
    Sched.schedule s ~time:(float_of_int (i * 37)) ~tag:0 i
  done;
  let popped = payloads s in
  Alcotest.(check int) "all popped" n (List.length popped);
  Alcotest.(check (list int)) "sorted by time" (List.init n (fun i -> i)) popped

(* --- qcheck parity harness: wheel vs the reference heap --- *)

type op = Push of float | Pop

(* An op stream drives the wheel and the reference in lockstep; every pop
   must agree on (time, tag, payload), and so must the final drain. *)
let apply_ops ops =
  let w = make () in
  let h = Heap.create () in
  let counter = ref 0 in
  let ref_pop () =
    match Heap.pop h with None -> None | Some (t, (tag, p)) -> Some (t, tag, p)
  in
  let rec ref_drain acc =
    match ref_pop () with None -> List.rev acc | Some e -> ref_drain (e :: acc)
  in
  List.for_all
    (function
      | Pop -> Sched.pop w = ref_pop ()
      | Push t ->
          incr counter;
          Sched.schedule w ~time:t ~tag:!counter !counter;
          Heap.push h t (!counter, !counter);
          true)
    ops
  && drain_all w = ref_drain []

let print_op = function Pop -> "pop" | Push t -> Printf.sprintf "push %h" t

(* Far times: past the wheel window, around the saturated bucket index
   (2^60 buckets of 256 µs = 2^68 µs), past [max_int] buckets, and
   infinite. *)
let far_times = [ 5e6; 1e12; 0x1p68; 0x1.0000000000001p68; 1.1e21; 1.2e21; max_float; infinity ]

let ops_arb ~near =
  let open QCheck in
  let op =
    Gen.frequency
      [
        (1, Gen.return Pop);
        (3, Gen.map (fun t -> Push t) near);
        (1, Gen.map (fun t -> Push t) (Gen.oneofl far_times));
      ]
  in
  make ~print:(Print.list print_op) Gen.(list_size (int_range 0 400) op)

(* Times from a grid of thirds up to 5e6 µs: frequent ties, and the range
   straddles the wheel window, so pushes land in due heap, wheel buckets
   and overflow alike. *)
let prop_wheel_matches_reference =
  QCheck.Test.make ~count:300 ~name:"sched: wheel pops identical to reference model"
    (ops_arb ~near:QCheck.Gen.(map (fun i -> float_of_int i /. 3.0) (int_bound 15_000_000)))
    apply_ops

(* Dense ties: many events on few distinct timestamps is the engine's
   common case (batched completions at one instant) and the FIFO edge the
   seq field exists for. *)
let prop_parity_under_heavy_ties =
  QCheck.Test.make ~count:200 ~name:"sched: parity under heavy timestamp ties"
    (ops_arb ~near:QCheck.Gen.(map float_of_int (int_bound 10)))
    apply_ops

let suite =
  [
    ( "sched.wheel",
      [
        Alcotest.test_case "fifo on equal times" `Quick test_fifo_on_equal_times;
        Alcotest.test_case "overflow far future" `Quick test_overflow_far_future;
        Alcotest.test_case "times beyond int range" `Quick test_beyond_int_range;
        Alcotest.test_case "schedule behind cursor" `Quick test_schedule_behind_cursor;
        Alcotest.test_case "next_time and stats" `Quick test_next_time_and_stats;
        Alcotest.test_case "bulk reverse order" `Quick test_bulk_reverse_order;
      ] );
    ( "sched.parity",
      [
        QCheck_alcotest.to_alcotest prop_wheel_matches_reference;
        QCheck_alcotest.to_alcotest prop_parity_under_heavy_ties;
      ] );
  ]
