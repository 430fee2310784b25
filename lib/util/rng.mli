(** Deterministic pseudo-random number generation.

    All randomized components of the repository (graph generation, GRASP,
    workload generators, simulator jitter) draw from this module so that
    every experiment is reproducible from a seed.  The generator is
    splitmix64, which is small, fast, and has well-understood statistical
    behaviour. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Useful to give subsystems their own streams. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution with the given
    mean; used for Poisson arrival processes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list.  Raises [Invalid_argument] on []. *)
