(** Guest memory and per-language string ABIs.

    The interpreter gives QIR programs a byte-addressed heap.  Pointers are
    64-bit values encoding (block id, offset); the null pointer is 0.

    Each language represents strings differently in that heap — this is the
    concrete obstacle that Quilt's Appendix-D shims overcome, so it is
    modelled for real:
    - C / C++: pointer to NUL-terminated bytes;
    - Rust: 24-byte header {data ptr, len, cap}, data not NUL-terminated;
    - Go: 16-byte header {data ptr, len};
    - Swift: 24-byte header {refcount, data ptr, len}.

    Reading a handle with the wrong language's reader yields garbage or a
    trap, exactly like misinterpreting memory in a native process. *)

module Mem : sig
  type t

  exception Trap of string
  (** Out-of-bounds or wild-pointer access. *)

  val create : unit -> t
  (** An empty heap with a 64 KB arena reserved. *)

  val empty : unit -> t
  (** An empty heap with nothing reserved: {!restore} sizes it to the
      snapshot, and allocation grows it from there. *)

  val alloc : t -> int -> int64
  (** [alloc m n] returns a pointer to [n] fresh zero bytes. *)

  val load_byte : t -> int64 -> int
  val store_byte : t -> int64 -> int -> unit
  val load_i64 : t -> int64 -> int64
  val store_i64 : t -> int64 -> int64 -> unit
  val offset : int64 -> int -> int64
  (** Pointer arithmetic within a block. *)

  val read_cstr : t -> int64 -> string
  (** Reads NUL-terminated bytes; raises {!Trap} past block end. *)

  val write_cstr : t -> string -> int64
  (** Allocates and writes a NUL-terminated copy; returns its address. *)

  val blit_string : t -> string -> int64 -> unit
  (** Bulk store of a whole string at a pointer; raises {!Trap} ("store out
      of bounds") if it does not fit in the block. *)

  val read_bytes : t -> int64 -> int -> string
  val allocated_bytes : t -> int

  type snapshot
  (** A frozen copy of a heap's live state. *)

  val snapshot : t -> snapshot

  val restore : snapshot -> t -> unit
  (** [restore s m] overwrites [m] so that its contents, block table and
      allocation cursor equal the snapshotted heap's, whatever [m] held
      before (another request's blocks, a run cut short by a trap).  [m]'s
      arena and block table are reused when large enough and otherwise
      replaced by ones of exactly the snapshot's size.  Bytes [m] held past
      the snapshot's allocation cursor are never observable: {!alloc}
      returns zeroed bytes and every read is bounded by a live block.  The
      restored heap shares no mutable state with the snapshot, so an engine
      pays for global materialization once per program and, by keeping a
      heap between requests, allocates no arena per request. *)
end

type str_abi = {
  abi_lang : string;
  read_str : Mem.t -> int64 -> string;
  alloc_str : Mem.t -> string -> int64;
}

val abi_of_lang : string -> str_abi
(** Raises [Invalid_argument] for unknown languages. *)
