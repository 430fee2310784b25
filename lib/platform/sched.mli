(** The simulator's event scheduler: a monomorphic float-keyed timer wheel.

    The discrete-event engine used to pump every event through a generic
    binary heap whose [<] compiled to polymorphic compare, allocating an
    entry record per event — fine for thousands of requests, hostile to
    million-request runs.  This module replaces it with:

    - a single-level timer wheel of 4096 buckets of 256 µs each (a window
      of ≈1.05 virtual seconds), with O(1) insertion for near-future
      events;
    - an overflow heap for events beyond the wheel window, cascaded back
      into the wheel as the cursor advances;
    - a due heap ordered by (time, seq) holding the events of the bucket
      under the cursor, which restores the exact global pop order;
    - preallocated event records in a structure-of-arrays freelist (times
      in an unboxed float array), so the steady-state hot path allocates
      nothing.

    Pop order is exactly nondecreasing (time, seq) with [seq] assigned at
    schedule time — the order of a binary heap that is FIFO on ties, as
    the seed's was.  [test/test_sched.ml] pins it against
    {!Quilt_util.Heap} as the reference model.

    Every event carries an integer [tag].  The engine stores a container's
    CPU epoch there, which replaces the seed's invalidate-by-reschedule
    closures: a stale tick is recognised by comparing the popped event's
    tag against the container's current epoch, with no per-reschedule
    closure allocation.  {!last_time} and {!last_tag} describe the most
    recently popped event and stay valid until the next pop.

    The scheduler also keeps the simulation clock: the latest event time
    popped, or time {!advance}d to.  It lives in an all-float record,
    which OCaml stores flat, so a pop writes it without boxing a float,
    and the engine reads it through {!clock} without a call. *)

type 'a t

type clock = private { mutable now : float; mutable last_time : float }
(** [now] never decreases; [last_time] is the popped event's time. *)

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills freed payload slots so the scheduler never pins dead
    events for the GC. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val schedule : 'a t -> time:float -> tag:int -> 'a -> unit
(** Absolute event time.  Negative times are clamped to 0 (the engine
    clamps delays); arbitrarily far times, [infinity] included, pop in
    order after every nearer event.  Raises [Invalid_argument] if [time]
    is NaN, which has no place in the order. *)

val schedule_in : 'a t -> delay:float -> tag:int -> 'a -> unit
(** [schedule_in t ~delay] schedules at [now + delay], a negative delay
    counting as 0. *)

val next_time : 'a t -> float
(** Time of the earliest pending event, [infinity] when empty.  May
    advance the wheel cursor internally; observable order is unaffected. *)

val has_due : 'a t -> float -> bool
(** [has_due t limit]: is an event pending at a time [<= limit]?  Same
    effect on the cursor as {!next_time}, without returning a float. *)

val pop_exn : 'a t -> 'a
(** Removes and returns the earliest event's payload (FIFO on equal
    times); sets {!last_time}/{!last_tag} and advances the clock to the
    event's time.  Raises [Not_found] when empty.
    Allocation-free. *)

val pop : 'a t -> (float * int * 'a) option
(** Convenience wrapper over {!pop_exn}: [(time, tag, payload)]. *)

val last_time : 'a t -> float

val clock : 'a t -> clock

val advance : 'a t -> float -> unit
(** Moves the clock forward to the given time; an earlier time is a no-op. *)

val last_tag : 'a t -> int

val scheduled_total : 'a t -> int
(** Events accepted over the scheduler's lifetime. *)

val popped_total : 'a t -> int
(** Events dispatched over the scheduler's lifetime. *)

val peak_length : 'a t -> int
(** High-water mark of pending events (queue depth). *)
