module Engine = Quilt_platform.Engine
module Rng = Quilt_util.Rng

type semantics = At_most_once | At_least_once

type t = {
  semantics : semantics;
  max_attempts : int;
  attempt_timeout_us : float option;
  backoff_base_us : float;
  backoff_cap_us : float;
  backoff_jitter : float;
  hedge_after_us : float option;
  retry_budget : float;
  retry_burst : float;
}

let none =
  {
    semantics = At_most_once;
    max_attempts = 1;
    attempt_timeout_us = None;
    backoff_base_us = 0.0;
    backoff_cap_us = 0.0;
    backoff_jitter = 0.0;
    hedge_after_us = None;
    retry_budget = 0.0;
    retry_burst = 0.0;
  }

let default_retry =
  {
    semantics = At_least_once;
    max_attempts = 3;
    attempt_timeout_us = Some 2_000_000.0;
    backoff_base_us = 10_000.0;
    backoff_cap_us = 500_000.0;
    backoff_jitter = 0.5;
    hedge_after_us = None;
    retry_budget = 0.2;
    retry_burst = 20.0;
  }

let hedged = { default_retry with hedge_after_us = Some 100_000.0 }

type stats = {
  offered : int;
  attempts : int;
  retries : int;
  hedges : int;
  timeouts : int;
  budget_denied : int;
  recovered : int;
  delivered_ok : int;
  delivered_fail : int;
  replayed_chains : int;
  wasted_work_us : float;
}

type gateway = {
  engine : Engine.t;
  policy : t;
  rng : Rng.t;
  mutable tokens : float;
  mutable offered : int;
  mutable attempts : int;
  mutable retries : int;
  mutable hedges : int;
  mutable timeouts : int;
  mutable budget_denied : int;
  mutable recovered : int;
  mutable delivered_ok : int;
  mutable delivered_fail : int;
  mutable replayed_chains : int;
  mutable wasted_work_us : float;
}

let create ?(seed = 0) engine policy =
  {
    engine;
    policy;
    rng = Rng.create (1177 + seed);
    tokens = policy.retry_burst;
    offered = 0;
    attempts = 0;
    retries = 0;
    hedges = 0;
    timeouts = 0;
    budget_denied = 0;
    recovered = 0;
    delivered_ok = 0;
    delivered_fail = 0;
    replayed_chains = 0;
    wasted_work_us = 0.0;
  }

let stats g =
  {
    offered = g.offered;
    attempts = g.attempts;
    retries = g.retries;
    hedges = g.hedges;
    timeouts = g.timeouts;
    budget_denied = g.budget_denied;
    recovered = g.recovered;
    delivered_ok = g.delivered_ok;
    delivered_fail = g.delivered_fail;
    replayed_chains = g.replayed_chains;
    wasted_work_us = g.wasted_work_us;
  }

(* Every retry (or hedge) against a merged entry re-submits the workflow
   from the top — the entire merged chain replays, successful members
   included.  [wasted_work_us] accumulates the end-to-end latency of every
   attempt whose result was NOT delivered to the client: failed attempts,
   abandoned (timed-out) attempts when they eventually complete, and hedge
   losers.  That is the replayed-work bill the blast-radius metrics put a
   price on. *)
let submit g ~entry ~req ~on_done =
  let p = g.policy in
  g.offered <- g.offered + 1;
  g.tokens <- Float.min p.retry_burst (g.tokens +. p.retry_budget);
  let t0 = Engine.now g.engine in
  let delivered = ref false in
  let live = ref 0 in
  let made = ref 0 in
  let deliver ~n ~ok =
    if not !delivered then begin
      delivered := true;
      if ok then begin
        g.delivered_ok <- g.delivered_ok + 1;
        if n > 1 then g.recovered <- g.recovered + 1
      end
      else g.delivered_fail <- g.delivered_fail + 1;
      on_done ~latency_us:(Engine.now g.engine -. t0) ~ok
    end
  in
  let rec launch () =
    incr made;
    let n = !made in
    g.attempts <- g.attempts + 1;
    incr live;
    let abandoned = ref false in
    let completed = ref false in
    (match p.attempt_timeout_us with
    | Some tmo ->
        Engine.schedule g.engine tmo (fun () ->
            if (not !completed) && (not !abandoned) && not !delivered then begin
              abandoned := true;
              decr live;
              g.timeouts <- g.timeouts + 1;
              consider_retry n
            end)
    | None -> ());
    Engine.submit g.engine ~entry ~req ~on_done:(fun ~latency_us ~ok ->
        completed := true;
        if !abandoned || !delivered then
          (* Late or losing result: the chain ran, the client will never
             see it. *)
          g.wasted_work_us <- g.wasted_work_us +. latency_us
        else begin
          decr live;
          if ok then deliver ~n ~ok:true
          else begin
            g.wasted_work_us <- g.wasted_work_us +. latency_us;
            consider_retry n
          end
        end)
  and consider_retry n =
    if !delivered then ()
    else if !live > 0 then
      (* Another attempt (a hedge) is still running; let it decide. *)
      ()
    else if p.semantics = At_most_once || !made >= p.max_attempts then deliver ~n ~ok:false
    else if g.tokens < 1.0 then begin
      g.budget_denied <- g.budget_denied + 1;
      deliver ~n ~ok:false
    end
    else begin
      g.tokens <- g.tokens -. 1.0;
      g.retries <- g.retries + 1;
      g.replayed_chains <- g.replayed_chains + 1;
      let b = Float.min p.backoff_cap_us (p.backoff_base_us *. (2.0 ** float_of_int (n - 1))) in
      let jit = 1.0 +. (p.backoff_jitter *. (Rng.float g.rng 2.0 -. 1.0)) in
      Engine.schedule g.engine
        (Float.max 0.0 (b *. jit))
        (fun () -> if not !delivered then launch ())
    end
  in
  launch ();
  match p.hedge_after_us with
  | Some h when p.semantics = At_least_once ->
      Engine.schedule g.engine h (fun () ->
          if (not !delivered) && !live >= 1 && !made < p.max_attempts && g.tokens >= 1.0 then begin
            g.tokens <- g.tokens -. 1.0;
            g.hedges <- g.hedges + 1;
            g.replayed_chains <- g.replayed_chains + 1;
            launch ()
          end)
  | _ -> ()

