(* Word-packed bitsets.  OCaml ints are 63-bit on 64-bit platforms; we use
   all of Sys.int_size bits per word.  The top word is kept masked so that
   count/equal/is_empty can work word-wise without trimming. *)

let word_bits = Sys.int_size

type t = { n : int; words : int array }

let words_for n = (n + word_bits - 1) / word_bits

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative width";
  { n; words = Array.make (words_for n) 0 }

let length t = t.n

let check t i ~op = if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Bitset.%s: index %d out of [0,%d)" op i t.n)

let set t i =
  check t i ~op:"set";
  t.words.(i / word_bits) <- t.words.(i / word_bits) lor (1 lsl (i mod word_bits))

let unset t i =
  check t i ~op:"unset";
  t.words.(i / word_bits) <- t.words.(i / word_bits) land lnot (1 lsl (i mod word_bits))

let mem t i =
  check t i ~op:"mem";
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let copy t = { n = t.n; words = Array.copy t.words }

let add t i =
  let t' = copy t in
  set t' i;
  t'

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* Kernighan's popcount: one iteration per set bit, which is cheap on the
   sparse words the decision algorithms mostly produce. *)
let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let same_width a b ~op =
  if a.n <> b.n then invalid_arg (Printf.sprintf "Bitset.%s: widths differ (%d vs %d)" op a.n b.n)

let equal a b =
  same_width a b ~op:"equal";
  let rec go i = i >= Array.length a.words || (a.words.(i) = b.words.(i) && go (i + 1)) in
  go 0

let subset a b =
  same_width a b ~op:"subset";
  let rec go i = i >= Array.length a.words || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1)) in
  go 0

let union_into ~dst src =
  same_width dst src ~op:"union_into";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let inter_into ~dst src =
  same_width dst src ~op:"inter_into";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let diff_into ~dst src =
  same_width dst src ~op:"diff_into";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

let union a b =
  let r = copy a in
  union_into ~dst:r b;
  r

let inter a b =
  let r = copy a in
  inter_into ~dst:r b;
  r

let diff a b =
  let r = copy a in
  diff_into ~dst:r b;
  r

let disjoint a b =
  same_width a b ~op:"disjoint";
  let rec go i = i >= Array.length a.words || (a.words.(i) land b.words.(i) = 0 && go (i + 1)) in
  go 0

let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    while !w <> 0 do
      (* Lowest set bit; log2 of a power of two via float exponent would be
         inexact at 63 bits, so count trailing zeros by shifting. *)
      let lsb = !w land -(!w) in
      let bit = ref 0 and x = ref lsb in
      while !x land 1 = 0 do
        x := !x lsr 1;
        incr bit
      done;
      f ((wi * word_bits) + !bit);
      w := !w land lnot lsb
    done
  done

let fold f init t =
  let acc = ref init in
  iter (fun i -> acc := f !acc i) t;
  !acc

let to_list t = List.rev (fold (fun acc i -> i :: acc) [] t)
let elements = to_list

let of_bool_array a =
  let t = create (Array.length a) in
  Array.iteri (fun i b -> if b then set t i) a;
  t

let to_bool_array t = Array.init t.n (mem t)

let of_list n l =
  let t = create n in
  List.iter (set t) l;
  t

