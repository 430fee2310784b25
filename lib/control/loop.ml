type config = {
  hysteresis : int;
  cooldown_us : float;
  noop_cooldown_us : float;
  warmup_us : float;
  eval_us : float;
}

type 'k phase = Stable | Proposing | Flight of { from : 'k; to_ : 'k; switched : float }

type 'k state = {
  phase : 'k phase;
  streak : int;
  cooldown_until : float;
  held : 'k list;
  fallback : ('k * 'k) option;
}

let init = { phase = Stable; streak = 0; cooldown_until = neg_infinity; held = []; fallback = None }

type 'k observation =
  | Quiet
  | Drifted
  | Thin
  | Proposed of { from : 'k; to_ : 'k }
  | Unsolved
  | Verdict of Canary.verdict
  | Trip

type 'k action =
  | Keep
  | Suspect of int
  | Skip
  | Propose
  | Rebaseline
  | Hold of 'k
  | Fail
  | Switch of { from : 'k; to_ : 'k }
  | Pass
  | Revert of { bad : 'k; back : 'k }

let step cfg st ~now obs =
  (* Every outcome of a proposal or a switch ends the same way: back to
     stable, streak reset, cooldown started. *)
  let settle ?(cooldown = cfg.cooldown_us) st =
    { st with phase = Stable; streak = 0; cooldown_until = now +. cooldown }
  in
  let revert ~bad ~back =
    let held = if List.mem bad st.held then st.held else bad :: st.held in
    (settle { st with held; fallback = None }, [ Revert { bad; back } ])
  in
  match (st.phase, obs) with
  | Flight { from; to_; switched }, Verdict v
    when now >= switched +. cfg.warmup_us +. cfg.eval_us -> (
      match v with
      | Canary.Regress _ -> revert ~bad:to_ ~back:from
      | Canary.Inconclusive _ when now -. switched <= cfg.warmup_us +. (3.0 *. cfg.eval_us) ->
          (st, [])
      | Canary.Pass | Canary.Inconclusive _ -> (settle st, [ Pass ]))
  | Stable, Trip -> (
      match st.fallback with Some (from, to_) -> revert ~bad:to_ ~back:from | None -> (st, []))
  | Stable, Thin -> (st, [ Skip ])
  | Stable, (Quiet | Drifted) when now < st.cooldown_until -> (st, [])
  | Stable, Quiet -> ({ st with streak = 0 }, [ Keep ])
  | Stable, Drifted ->
      let streak = st.streak + 1 in
      if streak >= cfg.hysteresis then ({ st with phase = Proposing; streak }, [ Propose ])
      else ({ st with streak }, [ Suspect streak ])
  | Proposing, Unsolved -> (settle ~cooldown:cfg.noop_cooldown_us st, [ Fail ])
  | Proposing, Proposed { from; to_ } when from = to_ ->
      (settle ~cooldown:cfg.noop_cooldown_us st, [ Rebaseline ])
  | Proposing, Proposed { to_; _ } when List.mem to_ st.held ->
      (settle ~cooldown:cfg.noop_cooldown_us st, [ Hold to_ ])
  | Proposing, Proposed { from; to_ } ->
      ( { (settle st) with phase = Flight { from; to_; switched = now }; fallback = Some (from, to_) },
        [ Switch { from; to_ } ] )
  | (Stable | Proposing | Flight _), _ -> (st, [])
