(** Small Domain-based parallel map (OCaml 5 multicore).

    The benchmark harness has several embarrassingly parallel loops (one
    simulator run per offered-load point, one random rDAG per repetition).
    [map] fans such a loop out across domains while keeping the result list
    in input order, so callers that fix per-item RNG seeds get output that is
    bit-identical to a sequential run.

    Parallelism is disabled (everything runs in the calling domain, still in
    order) when [~domains:1] is passed or the input has fewer than two
    elements.  The pool reads no environment: the domain count is the
    caller's [domains] argument, by default
    [Domain.recommended_domain_count ()].

    Work items must not share mutable state with each other: each item is
    evaluated exactly once, in exactly one domain. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f items] is [List.map f items], computed on up to [domains]
    domains.  Results are returned in input order.  If any application of
    [f] raises, the exception of the earliest-indexed failing item is
    re-raised in the caller after all domains have been joined. *)
