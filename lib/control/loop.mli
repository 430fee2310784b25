(** The control plane's change lifecycle, as one pure step.

    {!Controller} switches merge plans (keyed by
    {!Controller.fingerprint}) by running this loop: drifted windows build
    a hysteresis streak that triggers a proposal; a proposal naming a new
    key switches to it under canary; one evaluation window after the
    warm-up the verdict passes the switch or reverts it and holds the key
    down for good; every outcome starts a cooldown; the standing watchdog
    may still revert the last switch.

    The module never touches an engine: the caller turns engine reads into
    an {!observation} and applies the {!action}s {!step} returns.  Keys are
    compared structurally. *)

type config = {
  hysteresis : int;  (** Consecutive drifted windows before a proposal. *)
  cooldown_us : float;  (** Quiet period after a switch or a verdict. *)
  noop_cooldown_us : float;
      (** Quiet period after a proposal that switched nothing. *)
  warmup_us : float;  (** Post-switch samples the canary ignores. *)
  eval_us : float;  (** The canary judges this long after the warm-up. *)
}

type 'k phase =
  | Stable
  | Proposing  (** A {!Propose} is out; the next observation answers it. *)
  | Flight of { from : 'k; to_ : 'k; switched : float }  (** The one change in flight. *)

type 'k state = {
  phase : 'k phase;
  streak : int;
  cooldown_until : float;
  held : 'k list;  (** Keys a revert moved away from. *)
  fallback : ('k * 'k) option;
      (** [(from, to_)] of the last switch until a revert undoes it. *)
}

val init : 'k state

type 'k observation =
  | Quiet  (** The window matches the baseline. *)
  | Drifted
  | Thin  (** Too little traffic to judge the window. *)
  | Proposed of { from : 'k; to_ : 'k }
      (** The solver's key for the current one ([from = to_]: kept it). *)
  | Unsolved  (** The solver found nothing. *)
  | Verdict of Canary.verdict  (** The canary's verdict on the change in flight. *)
  | Trip  (** The watchdog's SLO is blown (only asked while a fallback exists). *)

type 'k action =
  | Keep
  | Suspect of int  (** Drifted, streak still below hysteresis. *)
  | Skip  (** Thin window; reported even during a cooldown. *)
  | Propose  (** Run the solver; answer with [Proposed] or [Unsolved]. *)
  | Rebaseline  (** The solver kept the key: adopt the window as baseline. *)
  | Hold of 'k  (** The solver proposed a held-down key. *)
  | Fail
  | Switch of { from : 'k; to_ : 'k }  (** Deploy [to_]; the canary starts. *)
  | Pass
      (** The switch stays: the canary passed it, or was still inconclusive
          three evaluation windows after the warm-up. *)
  | Revert of { bad : 'k; back : 'k }  (** Back to the key the switch displaced. *)

val step : config -> 'k state -> now:float -> 'k observation -> 'k state * 'k action list
(** An observation the phase does not expect leaves the state unchanged
    with no action; so does a verdict before the evaluation deadline, and a
    window during the cooldown. *)
