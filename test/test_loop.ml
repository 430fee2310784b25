(* Exhaustive check of the control loop's pure core (Quilt_control.Loop):
   every valid observation sequence up to length 8, under four timing
   configurations, against an independent model of five properties:

   - at most one change is in flight;
   - nothing is switched during a cooldown;
   - a held-down key is never switched to;
   - a revert restores exactly the key the switch displaced;
   - once observations go quiet the state reaches quiescence: stable, and
     a quiet window is a fixpoint that only keeps.

   Keys are ints; the deployed key starts at 0.  Window observations,
   canary verdicts and watchdog trips each happen one tick after the
   previous one; the solver's answer to a proposal comes at the proposal's
   own time, as the controller delivers it. *)

module Loop = Quilt_control.Loop
module Canary = Quilt_control.Canary
module Controller = Quilt_control.Controller

type sym =
  | Quiet
  | Drift
  | Thin
  | Same
  | New
  | Held_down
  | Failure
  | Pass
  | Regress
  | Inconclusive
  | Trip

let sym_name = function
  | Quiet -> "quiet"
  | Drift -> "drift"
  | Thin -> "thin"
  | Same -> "same"
  | New -> "new"
  | Held_down -> "held-down"
  | Failure -> "failure"
  | Pass -> "pass"
  | Regress -> "regress"
  | Inconclusive -> "inconclusive"
  | Trip -> "trip"

(* What the checker itself believes, from the actions alone. *)
type model = {
  current : int;  (** The deployed key. *)
  displaced : int option;  (** The key the last switch displaced, until reverted. *)
  in_flight : bool;
  held : int list;  (** Keys some revert moved away from. *)
  quiet_until : float;  (** No switch before this time. *)
  fresh : int;  (** The next never-seen key. *)
}

let model0 =
  { current = 0; displaced = None; in_flight = false; held = []; quiet_until = neg_infinity; fresh = 1 }

exception Violation of string

let violated fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* The symbols the glue can deliver in the core's current phase.  A trip is
   only reported while the core has a fallback (the controller's watchdog
   is idle otherwise); a held-down proposal needs a key the checker saw
   reverted. *)
let valid (st : int Loop.state) m =
  match st.Loop.phase with
  | Loop.Stable -> [ Quiet; Drift; Thin ] @ if st.Loop.fallback <> None then [ Trip ] else []
  | Loop.Proposing -> [ Same; New; Failure ] @ if m.held <> [] then [ Held_down ] else []
  | Loop.Flight _ -> [ Pass; Regress; Inconclusive ]

let is_tick = function Same | New | Held_down | Failure -> false | _ -> true

let observation m = function
  | Quiet -> Loop.Quiet
  | Drift -> Loop.Drifted
  | Thin -> Loop.Thin
  | Trip -> Loop.Trip
  | Same -> Loop.Proposed { from = m.current; to_ = m.current }
  | New -> Loop.Proposed { from = m.current; to_ = m.fresh }
  | Held_down -> Loop.Proposed { from = m.current; to_ = List.hd m.held }
  | Failure -> Loop.Unsolved
  | Pass -> Loop.Verdict Canary.Pass
  | Regress -> Loop.Verdict (Canary.Regress "regress")
  | Inconclusive -> Loop.Verdict (Canary.Inconclusive "inconclusive")

(* [sym] tells the canary's pass from an acceptance after three
   inconclusive evaluation windows. *)
let action_name sym = function
  | Loop.Pass when sym = Inconclusive -> "accept"
  | Loop.Keep -> "keep"
  | Loop.Suspect _ -> "suspect"
  | Loop.Skip -> "skip"
  | Loop.Propose -> "propose"
  | Loop.Rebaseline -> "rebaseline"
  | Loop.Hold _ -> "hold"
  | Loop.Fail -> "fail"
  | Loop.Switch _ -> "switch"
  | Loop.Pass -> "pass"
  | Loop.Revert _ -> "revert"

(* Advance the model over one action, checking the four safety
   properties. *)
let account (cfg : Loop.config) ~now m = function
  | Loop.Switch { from; to_ } ->
      if m.in_flight then violated "switch to %d while a change is in flight" to_;
      if now < m.quiet_until then
        violated "switch to %d at %g inside the cooldown (until %g)" to_ now m.quiet_until;
      if List.mem to_ m.held then violated "switch to held-down key %d" to_;
      if from <> m.current then violated "switch from %d, but %d is deployed" from m.current;
      {
        m with
        current = to_;
        displaced = Some from;
        in_flight = true;
        quiet_until = now +. cfg.Loop.cooldown_us;
      }
  | Loop.Revert { bad; back } ->
      if bad <> m.current then violated "revert of %d, but %d is deployed" bad m.current;
      if Some back <> m.displaced then
        violated "revert to %d, but the switch displaced %s" back
          (match m.displaced with Some k -> string_of_int k | None -> "nothing");
      {
        m with
        current = back;
        displaced = None;
        in_flight = false;
        held = (if List.mem bad m.held then m.held else bad :: m.held);
        quiet_until = now +. cfg.Loop.cooldown_us;
      }
  | Loop.Pass ->
      if not m.in_flight then violated "verdict with no change in flight";
      { m with in_flight = false; quiet_until = now +. cfg.Loop.cooldown_us }
  | Loop.Rebaseline | Loop.Hold _ | Loop.Fail -> { m with quiet_until = now +. cfg.Loop.noop_cooldown_us }
  | Loop.Keep | Loop.Suspect _ | Loop.Skip | Loop.Propose -> m

type run = { cfg : Loop.config; tick : float; seen : (string, unit) Hashtbl.t; mutable sequences : int }

let feed r (st, m, now) sym =
  let now = if is_tick sym then now +. r.tick else now in
  let st', actions = Loop.step r.cfg st ~now (observation m sym) in
  List.iter (fun a -> Hashtbl.replace r.seen (action_name sym a) ()) actions;
  let m = List.fold_left (account r.cfg ~now) m actions in
  let m = if sym = New then { m with fresh = m.fresh + 1 } else m in
  ((st', m, now), actions)

(* Feed the quiet observation of each phase until the state is a fixpoint
   of a quiet window; the safety properties keep being checked on the
   way. *)
let quiesce r node =
  let rec go node k =
    if k = 0 then violated "no quiescence after 200 quiet observations";
    let st, _, _ = node in
    match st.Loop.phase with
    | Loop.Stable -> (
        let ((st', _, _) as next), actions = feed r node Quiet in
        match actions with [ Loop.Keep ] when st' = st -> () | _ -> go next (k - 1))
    | Loop.Proposing -> go (fst (feed r node Same)) (k - 1)
    | Loop.Flight _ -> go (fst (feed r node Inconclusive)) (k - 1)
  in
  go node 200

let rec explore r ~depth node trace =
  r.sequences <- r.sequences + 1;
  (try quiesce r node
   with Violation msg ->
     Alcotest.failf "after [%s]: %s" (String.concat "; " (List.rev_map sym_name trace)) msg);
  if depth > 0 then
    let st, m, _ = node in
    List.iter
      (fun sym ->
        match feed r node sym with
        | next, _ -> explore r ~depth:(depth - 1) next (sym :: trace)
        | exception Violation msg ->
            Alcotest.failf "after [%s]: %s"
              (String.concat "; " (List.rev_map sym_name (sym :: trace)))
              msg)
      (valid st m)

let check_all ~tick cfg =
  let r = { cfg; tick; seen = Hashtbl.create 16; sequences = 0 } in
  explore r ~depth:8 (Loop.init, model0, 0.0) [];
  r

(* Two compact timings reach every lifecycle path (a hold after a revert,
   an acceptance after three inconclusive windows) within eight
   observations; the controller's default timings check the same
   properties with the numbers that run. *)
let compact_eager =
  { Loop.hysteresis = 1; cooldown_us = 2.0; noop_cooldown_us = 0.0; warmup_us = 1.0; eval_us = 1.0 }

let compact_controller =
  { Loop.hysteresis = 2; cooldown_us = 3.0; noop_cooldown_us = 3.0; warmup_us = 1.0; eval_us = 1.0 }

let controller_defaults =
  let c = Controller.default_config in
  {
    Loop.hysteresis = Controller.hysteresis;
    cooldown_us = c.Controller.cooldown_us;
    noop_cooldown_us = c.Controller.cooldown_us;
    warmup_us = c.Controller.canary_warmup_us;
    eval_us = c.Controller.canary_eval_us;
  }

let test_exhaustive () =
  let runs =
    [
      check_all ~tick:1.0 compact_eager;
      check_all ~tick:1.0 compact_controller;
      check_all ~tick:Controller.default_config.Controller.tick_us controller_defaults;
    ]
  in
  (* Not vacuous: every action of the loop occurs somewhere. *)
  List.iter
    (fun a ->
      if not (List.exists (fun r -> Hashtbl.mem r.seen a) runs) then
        Alcotest.failf "no sequence produced a %s" a)
    [
      "keep"; "suspect"; "skip"; "propose"; "rebaseline"; "hold"; "fail"; "switch"; "pass";
      "accept"; "revert";
    ];
  Alcotest.(check bool)
    "thousands of sequences per timing" true
    (List.for_all (fun r -> r.sequences > 1000) runs)

let suite =
  [
    ( "control.loop",
      [ Alcotest.test_case "exhaustive: every sequence up to length 8" `Quick test_exhaustive ] );
  ]
