(** The three DeathStarBench applications, ported per §7.2 with the
    workflow topologies of Figures 3 and 14–16 and the database calls
    replaced by hardcoded results + sleeps (Experiment 2's substitution).

    Each application yields its workflows; [async] selects whether fan-out
    sections use asynchronous invocations (Figure 6 evaluates both).  The
    Hotel Reservation functions run for seconds — the regime where the
    paper shows merging stops paying off — and are only built
    synchronously, as in the paper. *)

val social_network : async:bool -> unit -> Workflow.t list
(** compose-post (11 fns), follow-with-uname (4), read-home-timeline (2). *)

val media : async:bool -> unit -> Workflow.t list
(** compose-review (15 fns), page-service (6), read-user-review (2). *)

val hotel : unit -> Workflow.t list
(** search-handler (6), reservation-handler (3), nearby-cinema (2). *)

val all : async:bool -> unit -> Workflow.t list
(** The nine workflows, SN then MR then HR. *)
