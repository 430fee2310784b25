module Mem = struct
  exception Trap of string

  (* One flat arena with bump allocation.  Block ids are dense (1, 2, ...),
     so the block table is a pair of int arrays (span start, span length)
     indexed by id: decoding a pointer — the innermost operation of every
     load, store and string shim — is two bound checks and two array
     reads, and allocating a block is a bump plus two array writes with no
     per-block OCaml allocation (and so no GC traffic proportional to
     guest allocation rate).

     The arena is created uninitialized; [alloc] zeroes each fresh span
     (the documented "fresh zero bytes" contract), and the raw allocator
     below skips even that for spans the caller fully overwrites.  Bytes
     past [brk] are never part of any block, so their contents are
     unobservable. *)
  type t = {
    mutable arena : Bytes.t;
    mutable starts : int array;
    mutable lens : int array;
    mutable next : int;  (* next block id *)
    mutable brk : int;  (* first free arena offset *)
    mutable total : int;
  }

  let create () =
    {
      arena = Bytes.create 65536;
      starts = Array.make 64 0;
      lens = Array.make 64 0;
      next = 1;
      total = 0;
      brk = 0;
    }

  (* A heap with nothing reserved (the block tables always cover the ids
     below [next]; id 0 is null), for [restore] to size to need. *)
  let empty () =
    { arena = Bytes.empty; starts = Array.make 1 0; lens = Array.make 1 0; next = 1; total = 0; brk = 0 }

  (* Doubles [cap] (from at least 64) until it reaches [need]. *)
  let rec grown cap need = if cap >= need then cap else grown (max 64 (2 * cap)) need

  (* Reserves a span without zeroing it: the caller promises to overwrite
     all [n] bytes (or zero what it doesn't).  Returns the block's pointer
     and its start offset in [m.arena].  NOTE: the arena may be replaced
     by a later allocation's growth, so the start offset (and any use of
     [m.arena]) is only valid until the next alloc. *)
  let alloc_raw m n =
    if n < 0 then raise (Trap "negative allocation");
    let id = m.next in
    m.next <- id + 1;
    if id >= Array.length m.starts then begin
      let cap = grown (Array.length m.starts) (id + 1) in
      let s = Array.make cap 0 and l = Array.make cap 0 in
      Array.blit m.starts 0 s 0 id;
      Array.blit m.lens 0 l 0 id;
      m.starts <- s;
      m.lens <- l
    end;
    if m.brk + n > Bytes.length m.arena then begin
      let a = Bytes.create (grown (Bytes.length m.arena) (m.brk + n)) in
      Bytes.blit m.arena 0 a 0 m.brk;
      m.arena <- a
    end;
    let start = m.brk in
    Array.unsafe_set m.starts id start;
    Array.unsafe_set m.lens id n;
    m.brk <- start + n;
    m.total <- m.total + n;
    (Int64.shift_left (Int64.of_int id) 32, start)

  let alloc m n =
    let ptr, start = alloc_raw m n in
    Bytes.fill m.arena start n '\000';
    ptr

  (* Returns the block's (start, length) span and the offset within it. *)
  let decode m ptr =
    if ptr = 0L then raise (Trap "null pointer dereference");
    let id = Int64.to_int (Int64.shift_right_logical ptr 32) in
    let off = Int64.to_int (Int64.logand ptr 0xFFFFFFFFL) in
    if id > 0 && id < m.next then
      (Array.unsafe_get m.starts id, Array.unsafe_get m.lens id, off)
    else raise (Trap (Printf.sprintf "wild pointer (block %d)" id))

  let load_byte m ptr =
    let s, len, off = decode m ptr in
    if off < 0 || off >= len then raise (Trap "load out of bounds");
    Char.code (Bytes.unsafe_get m.arena (s + off))

  let store_byte m ptr v =
    let s, len, off = decode m ptr in
    if off < 0 || off >= len then raise (Trap "store out of bounds");
    Bytes.unsafe_set m.arena (s + off) (Char.chr (v land 0xff))

  let load_i64 m ptr =
    let s, len, off = decode m ptr in
    if off < 0 || off + 8 > len then raise (Trap "load i64 out of bounds");
    Bytes.get_int64_le m.arena (s + off)

  let store_i64 m ptr v =
    let s, len, off = decode m ptr in
    if off < 0 || off + 8 > len then raise (Trap "store i64 out of bounds");
    Bytes.set_int64_le m.arena (s + off) v

  let offset ptr n = Int64.add ptr (Int64.of_int n)

  (* One decode + one NUL scan, instead of a block-table lookup per byte.
     The scan may overshoot the block into neighbouring arena bytes, but a
     NUL found at or past the block end only ever yields the same
     "unterminated string" trap the bounded scan would. *)
  let read_cstr m ptr =
    let s, len, off = decode m ptr in
    if off < 0 || off > len then raise (Trap "unterminated string");
    match Bytes.index_from_opt m.arena (s + off) '\000' with
    | Some stop when stop < s + len -> Bytes.sub_string m.arena (s + off) (stop - s - off)
    | Some _ | None -> raise (Trap "unterminated string")

  (* One raw alloc + one blit: every byte of the fresh block is written
     (payload plus explicit trailing NUL), and a fresh block of
     [len s + 1] bytes cannot be out of bounds, so the per-byte checks of
     the old store_byte loop were dead. *)
  let write_cstr m s =
    let n = String.length s in
    let ptr, start = alloc_raw m (n + 1) in
    Bytes.blit_string s 0 m.arena start n;
    Bytes.unsafe_set m.arena (start + n) '\000';
    ptr

  let blit_string m s ptr =
    let bs, len, off = decode m ptr in
    let n = String.length s in
    if off < 0 || off + n > len then raise (Trap "store out of bounds");
    Bytes.blit_string s 0 m.arena (bs + off) n

  let read_bytes m ptr n =
    let s, len, off = decode m ptr in
    if off < 0 || off + n > len then raise (Trap "read out of bounds");
    Bytes.sub_string m.arena (s + off) n

  let allocated_bytes m = m.total

  (* A frozen copy of a heap's live state (arena prefix + block table),
     trimmed to what is actually in use.  [restore] writes it over an
     existing heap: the compiled engine snapshots a heap holding the
     materialized globals once per program, then starts each request by
     restoring that image into a heap kept from an earlier request — a few
     blits, and no allocation once the heap has grown to the program's
     need. *)
  type snapshot = {
    s_arena : Bytes.t;
    s_starts : int array;
    s_lens : int array;
    s_next : int;
    s_total : int;
  }

  let snapshot m =
    {
      s_arena = Bytes.sub m.arena 0 m.brk;
      s_starts = Array.sub m.starts 0 m.next;
      s_lens = Array.sub m.lens 0 m.next;
      s_next = m.next;
      s_total = m.total;
    }

  (* Whatever [m] held before — another request's blocks, a run cut short
     by a trap or an exception — only the arena prefix below [brk] and the
     table entries below [next] are ever read, and both are overwritten
     here.  Stale bytes past [brk] stay unobservable: [alloc] zeroes fresh
     spans and [alloc_raw]'s callers overwrite theirs.  A heap that is too
     small is replaced by one of exactly the snapshot's size (no floor), so
     a heap kept between requests retains only what its largest request
     grew it to. *)
  let restore s m =
    let used = Bytes.length s.s_arena in
    if Bytes.length m.arena < used then m.arena <- Bytes.create used;
    Bytes.blit s.s_arena 0 m.arena 0 used;
    if Array.length m.starts < s.s_next then begin
      m.starts <- Array.make s.s_next 0;
      m.lens <- Array.make s.s_next 0
    end;
    Array.blit s.s_starts 0 m.starts 0 s.s_next;
    Array.blit s.s_lens 0 m.lens 0 s.s_next;
    m.next <- s.s_next;
    m.brk <- used;
    m.total <- s.s_total
end

type str_abi = {
  abi_lang : string;
  read_str : Mem.t -> int64 -> string;
  alloc_str : Mem.t -> string -> int64;
}

let c_abi lang =
  { abi_lang = lang; read_str = Mem.read_cstr; alloc_str = (fun m s -> Mem.write_cstr m s) }

(* Reads the {data ptr; len} pair at [h + at]: one decode and one combined
   bound check instead of two full load_i64 round-trips.  Any failure the
   two separate loads would have hit raises the same "load i64 out of
   bounds" trap. *)
let read_header2 m h at =
  let s, len, off = Mem.decode m h in
  let off = off + at in
  if off < 0 || off + 16 > len then raise (Mem.Trap "load i64 out of bounds");
  let a = m.Mem.arena in
  (Bytes.get_int64_le a (s + off), Int64.to_int (Bytes.get_int64_le a (s + off + 8)))

(* Rust String: {data ptr; len; cap}; data has cap >= len bytes, no NUL. *)
let rust_abi =
  {
    abi_lang = "rust";
    read_str =
      (fun m h ->
        let data, len = read_header2 m h 0 in
        if len = 0 then "" else Mem.read_bytes m data len);
    alloc_str =
      (fun m s ->
        let len = String.length s in
        let cap = len + 8 in
        (* Raw spans are uninitialized: the payload is blitted and the eight
           bytes of readable slack are zeroed explicitly. *)
        let data, ds = Mem.alloc_raw m cap in
        Bytes.blit_string s 0 m.Mem.arena ds len;
        Bytes.fill m.Mem.arena (ds + len) 8 '\000';
        let h, hs = Mem.alloc_raw m 24 in
        (* Re-read the arena: the header allocation may have grown it. *)
        let a = m.Mem.arena in
        Bytes.set_int64_le a hs data;
        Bytes.set_int64_le a (hs + 8) (Int64.of_int len);
        Bytes.set_int64_le a (hs + 16) (Int64.of_int cap);
        h);
  }

(* Go string: {data ptr; len}. *)
let go_abi =
  {
    abi_lang = "go";
    read_str =
      (fun m h ->
        let data, len = read_header2 m h 0 in
        if len = 0 then "" else Mem.read_bytes m data len);
    alloc_str =
      (fun m s ->
        let len = String.length s in
        let data, ds = Mem.alloc_raw m (max 1 len) in
        if len = 0 then Bytes.unsafe_set m.Mem.arena ds '\000'
        else Bytes.blit_string s 0 m.Mem.arena ds len;
        let h, hs = Mem.alloc_raw m 16 in
        let a = m.Mem.arena in
        Bytes.set_int64_le a hs data;
        Bytes.set_int64_le a (hs + 8) (Int64.of_int len);
        h);
  }

(* Swift String (simplified heap representation): {refcount; data ptr; len}. *)
let swift_abi =
  {
    abi_lang = "swift";
    read_str =
      (fun m h ->
        let data, len = read_header2 m h 8 in
        if len = 0 then "" else Mem.read_bytes m data len);
    alloc_str =
      (fun m s ->
        let len = String.length s in
        let data, ds = Mem.alloc_raw m (max 1 len) in
        if len = 0 then Bytes.unsafe_set m.Mem.arena ds '\000'
        else Bytes.blit_string s 0 m.Mem.arena ds len;
        let h, hs = Mem.alloc_raw m 24 in
        let a = m.Mem.arena in
        Bytes.set_int64_le a hs 1L;
        Bytes.set_int64_le a (hs + 8) data;
        Bytes.set_int64_le a (hs + 16) (Int64.of_int len);
        h);
  }

let abi_of_lang = function
  | "c" -> c_abi "c"
  | "cpp" -> c_abi "cpp"
  | "rust" -> rust_abi
  | "go" -> go_abi
  | "swift" -> swift_abi
  | l -> invalid_arg (Printf.sprintf "Abi.abi_of_lang: unknown language %s" l)
