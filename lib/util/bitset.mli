(** Fixed-width bitsets over [int] words.

    The decision algorithms manipulate many vertex sets over a graph whose
    size is known up front (closures, descendant sets, subgraph members).
    Representing them as word-packed bitsets makes union/intersection
    word-level operations — 63 elements per instruction instead of one — and
    keeps the sets cache-resident.  All sets of a given width share the same
    layout, so the binary operations require equal widths and raise
    [Invalid_argument] otherwise.

    Mutating operations ([set], [unset], [union_into], ...) are in-place;
    [union] and [inter] are their pure counterparts.  Indices outside
    [0, length) raise [Invalid_argument]. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [{0, ..., n-1}].  [n] must be
    non-negative. *)

val length : t -> int
(** Width of the universe, as given to {!create}. *)

val set : t -> int -> unit
val unset : t -> int -> unit
val mem : t -> int -> bool

val add : t -> int -> t
(** Pure [set]: a fresh set with the extra element. *)

val copy : t -> t
val clear : t -> unit
(** Removes every element, in place. *)

val is_empty : t -> bool
val count : t -> int
(** Number of elements (population count). *)

val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b] is true iff every element of [a] is in [b]. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] adds every element of [src] to [dst], word by
    word. *)

val inter_into : dst:t -> t -> unit

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val disjoint : t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Calls the function on each element in increasing order, skipping empty
    words. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
(** [fold f init s] folds over elements in increasing order. *)

val to_list : t -> int list
val elements : t -> int list
(** Alias for {!to_list}. *)

val of_bool_array : bool array -> t
val to_bool_array : t -> bool array

val of_list : int -> int list -> t
(** [of_list n l] is the set over universe [n] containing [l]. *)

