(** Binary min-heap with a monomorphic [float] priority.

    Used as a general float-keyed priority queue (branch-and-bound bounds,
    decision algorithms).  Priorities compare with the native float [<], so
    no polymorphic-compare call sits on the pop path; ties break by
    insertion order so drains are deterministic.  The simulator's event
    queue moved to the timer-wheel scheduler ([Quilt_platform.Sched]);
    [test/test_sched.ml] checks the wheel's pop order against this heap. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h prio v] inserts [v] with priority [prio]. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum element, [None] when empty. *)

val peek : 'a t -> (float * 'a) option
(** Returns the minimum element without removing it. *)

val clear : 'a t -> unit
