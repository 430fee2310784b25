(* Tests for the bitset and domain-pool kernels backing the decision
   algorithms.  The bitset is checked against a [bool array] reference model
   under random operation sequences; the pool is checked for order
   preservation, equality with [List.map], and deterministic error
   propagation. *)

module Bitset = Quilt_util.Bitset
module Pool = Quilt_util.Pool
module Rng = Quilt_util.Rng

(* --- unit tests --- *)

let test_basic_ops () =
  let s = Bitset.create 100 in
  Alcotest.(check int) "length" 100 (Bitset.length s);
  Alcotest.(check bool) "fresh empty" true (Bitset.is_empty s);
  Bitset.set s 0;
  Bitset.set s 63;
  Bitset.set s 64;
  Bitset.set s 99;
  Alcotest.(check int) "count" 4 (Bitset.count s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "not mem 62" false (Bitset.mem s 62);
  Alcotest.(check (list int)) "elements increasing" [ 0; 63; 64; 99 ] (Bitset.elements s);
  Bitset.unset s 63;
  Alcotest.(check bool) "unset" false (Bitset.mem s 63);
  Bitset.clear s;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s)

let test_bounds_raise () =
  let s = Bitset.create 10 in
  let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "set -1" true (raises (fun () -> Bitset.set s (-1)));
  Alcotest.(check bool) "set n" true (raises (fun () -> Bitset.set s 10));
  Alcotest.(check bool) "mem n" true (raises (fun () -> ignore (Bitset.mem s 10)));
  let t = Bitset.create 11 in
  Alcotest.(check bool) "width mismatch" true (raises (fun () -> Bitset.union_into ~dst:s t))

let test_pure_ops_fresh () =
  let a = Bitset.of_list 70 [ 1; 65 ] and b = Bitset.of_list 70 [ 2; 65 ] in
  let u = Bitset.union a b in
  Alcotest.(check (list int)) "union" [ 1; 2; 65 ] (Bitset.to_list u);
  Alcotest.(check (list int)) "a untouched" [ 1; 65 ] (Bitset.to_list a);
  Alcotest.(check (list int)) "inter" [ 65 ] (Bitset.to_list (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitset.to_list (Bitset.diff a b));
  Alcotest.(check bool) "not disjoint" false (Bitset.disjoint a b);
  Alcotest.(check bool) "subset of union" true (Bitset.subset a u);
  let c = Bitset.add a 3 in
  Alcotest.(check (list int)) "add pure" [ 1; 3; 65 ] (Bitset.to_list c);
  Alcotest.(check (list int)) "add source untouched" [ 1; 65 ] (Bitset.to_list a)

let test_zero_width () =
  let s = Bitset.create 0 in
  Alcotest.(check int) "count" 0 (Bitset.count s);
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Alcotest.(check (list int)) "elements" [] (Bitset.elements s)

(* --- qcheck: reference-model equivalence --- *)

(* Interpret a random script of mutations on both the bitset and a plain
   [bool array]; after every step the two must agree on membership, count,
   and element order. *)
let prop_model_equivalence =
  QCheck.Test.make ~name:"bitset = bool-array model under random ops" ~count:200
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 1 150 in
      let s = Bitset.create n and m = Array.make n false in
      let agree () =
        Bitset.count s = Array.fold_left (fun a b -> if b then a + 1 else a) 0 m
        && Bitset.to_list s
           = List.filter (fun i -> m.(i)) (List.init n (fun i -> i))
        && Bitset.to_bool_array s = m
        && Bitset.equal s (Bitset.of_bool_array m)
      in
      let ok = ref (agree ()) in
      for _ = 1 to 60 do
        if !ok then begin
          let i = Rng.int_in rng 0 (n - 1) in
          (match Rng.int_in rng 0 3 with
          | 0 -> (Bitset.set s i; m.(i) <- true)
          | 1 -> (Bitset.unset s i; m.(i) <- false)
          | 2 ->
              (* in-place union with a random set *)
              let other = Array.init n (fun _ -> Rng.chance rng 0.2) in
              Bitset.union_into ~dst:s (Bitset.of_bool_array other);
              Array.iteri (fun j b -> if b then m.(j) <- true) other
          | _ ->
              let other = Array.init n (fun _ -> Rng.chance rng 0.7) in
              Bitset.inter_into ~dst:s (Bitset.of_bool_array other);
              Array.iteri (fun j b -> if not b then m.(j) <- false) other);
          ok := agree ()
        end
      done;
      !ok)

let prop_fold_iter_agree =
  QCheck.Test.make ~name:"iter/fold/to_list agree and ascend" ~count:100
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 1 200 in
      let s = Bitset.create n in
      for _ = 1 to n / 2 do Bitset.set s (Rng.int_in rng 0 (n - 1)) done;
      let via_iter = ref [] in
      Bitset.iter (fun i -> via_iter := i :: !via_iter) s;
      let via_iter = List.rev !via_iter in
      let via_fold = List.rev (Bitset.fold (fun acc i -> i :: acc) [] s) in
      via_iter = Bitset.to_list s
      && via_fold = via_iter
      && via_iter = List.sort_uniq compare via_iter)

let prop_setops_model =
  QCheck.Test.make ~name:"union/inter/diff = model set ops" ~count:100
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 1 130 in
      let a = Array.init n (fun _ -> Rng.chance rng 0.3) in
      let b = Array.init n (fun _ -> Rng.chance rng 0.3) in
      let sa = Bitset.of_bool_array a and sb = Bitset.of_bool_array b in
      Bitset.to_bool_array (Bitset.union sa sb) = Array.init n (fun i -> a.(i) || b.(i))
      && Bitset.to_bool_array (Bitset.inter sa sb) = Array.init n (fun i -> a.(i) && b.(i))
      && Bitset.to_bool_array (Bitset.diff sa sb) = Array.init n (fun i -> a.(i) && not b.(i))
      && Bitset.disjoint sa sb = not (Array.exists (fun x -> x) (Array.init n (fun i -> a.(i) && b.(i))))
      && Bitset.subset sa sb = Array.for_all (fun x -> x) (Array.init n (fun i -> (not a.(i)) || b.(i))))

(* --- pool --- *)

let test_pool_map_order () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "parallel = List.map" (List.map f xs) (Pool.map f xs);
  Alcotest.(check (list int)) "domains:1 = List.map" (List.map f xs) (Pool.map ~domains:1 f xs)

let test_pool_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Pool.map (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map (fun x -> x + 1) [ 6 ])

exception Boom of int

let test_pool_error_propagation () =
  (* Several items fail; the earliest-indexed failure must surface,
     regardless of which domain hit it first. *)
  let f x = if x mod 3 = 2 then raise (Boom x) else x in
  (match Pool.map f (List.init 30 (fun i -> i)) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x -> Alcotest.(check int) "earliest failure wins" 2 x);
  (match Pool.map ~domains:1 f (List.init 30 (fun i -> i)) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x -> Alcotest.(check int) "sequential too" 2 x);
  (* After the failure the pool must still be usable: no orphaned domains
     wedging the next spawn. *)
  Alcotest.(check (list int)) "pool alive after failure" [ 2; 3; 4; 5 ]
    (Pool.map ~domains:4 (fun x -> x + 1) [ 1; 2; 3; 4 ])

let prop_pool_matches_list_map =
  QCheck.Test.make ~name:"pool map = List.map for pure functions" ~count:30
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 0 64 in
      let xs = List.init n (fun _ -> Rng.int_in rng (-1000) 1000) in
      let f x = (x * 31) lxor 5 in
      Pool.map f xs = List.map f xs)

let suite =
  [
    ( "util.bitset",
      [
        Alcotest.test_case "basic ops" `Quick test_basic_ops;
        Alcotest.test_case "bounds raise" `Quick test_bounds_raise;
        Alcotest.test_case "pure ops fresh" `Quick test_pure_ops_fresh;
        Alcotest.test_case "zero width" `Quick test_zero_width;
        QCheck_alcotest.to_alcotest prop_model_equivalence;
        QCheck_alcotest.to_alcotest prop_fold_iter_agree;
        QCheck_alcotest.to_alcotest prop_setops_model;
      ] );
    ( "util.pool",
      [
        Alcotest.test_case "map order" `Quick test_pool_map_order;
        Alcotest.test_case "empty and single" `Quick test_pool_empty_and_single;
        Alcotest.test_case "error propagation" `Quick test_pool_error_propagation;
        QCheck_alcotest.to_alcotest prop_pool_matches_list_map;
      ] );
  ]
