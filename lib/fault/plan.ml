module Engine = Quilt_platform.Engine
module Rng = Quilt_util.Rng

type fault =
  | Kill of { fn : string; count : int }
  | Kill_all of { fn : string }
  | Crash_storm of { fn : string; every_us : float; until_us : float; count : int }
  | Mem_spike of { fn : string; mb : float; duration_us : float }
  | Net_delay of {
      src : string;
      dst : string;
      delay_us : float;
      jitter_us : float;
      duration_us : float;
    }
  | Net_drop of { src : string; dst : string; p : float; duration_us : float }
  | Cpu_degrade of { fn : string; factor : float; duration_us : float }
  | Image_cache_flush of { pull_factor : float; duration_us : float }
  | Kill_node of { node : int }

type event = { at_us : float; fault : fault }

type t = { seed : int; events : event list }

let make ~seed events = { seed; events }

(* One network perturbation, pre-registered at arm time so a single engine
   hook can compose every rule; activation just flips the flag. *)
type net_rule = {
  nr_src : string;
  nr_dst : string;
  nr_kind : [ `Delay of float * float | `Drop of float ];
  mutable nr_active : bool;
}

type armed = {
  a_engine : Engine.t;
  a_rng : Rng.t;
  a_t0 : float;  (* absolute arm time; event [at_us] are relative to it *)
  mutable a_trace : (float * string) list;  (* newest first *)
  mutable a_net_rules : net_rule list;  (* plan order *)
  a_cpu : (string, float) Hashtbl.t;  (* fn -> composed degradation factor *)
  mutable a_flushes : int;  (* active image-cache flushes *)
}

let record a fmt =
  Printf.ksprintf
    (fun s -> a.a_trace <- (Engine.now a.a_engine, s) :: a.a_trace)
    fmt

let trace a = List.rev a.a_trace

(* Beyond exact names and "*", patterns of the form "node:N" / "rack:R"
   match services by where the engine's cluster topology hosts them, so a
   chaos plan can slow or partition a whole rack.  Precedence (pinned by
   test_fault.ml): exact name first — a deployment literally named
   "node:1" is matched by that pattern wherever it runs — then "*", then
   the location forms.  The ingress pseudo-endpoint "client" is outside
   the cluster and never matches a location pattern; on a flat engine the
   location forms match nothing. *)
let loc_pat pat =
  let parse prefix =
    let pl = String.length prefix in
    if String.length pat > pl && String.equal (String.sub pat 0 pl) prefix then
      int_of_string_opt (String.sub pat pl (String.length pat - pl))
    else None
  in
  match parse "node:" with
  | Some n -> Some (`Node n)
  | None -> ( match parse "rack:" with Some r -> Some (`Rack r) | None -> None)

let matches engine pat name =
  String.equal pat name || String.equal pat "*"
  || (not (String.equal name "client"))
     &&
     match loc_pat pat with
     | Some (`Node n) -> Engine.node_of_service engine name = Some n
     | Some (`Rack r) -> Engine.rack_of_service engine name = Some r
     | None -> false

let caller_name = function None -> "client" | Some c -> c

(* The composed network hook.  Installed once per armed plan (when the plan
   has any network fault); rules contribute only while active.  Jitter and
   drop decisions draw from the plan's own RNG — the engine's streams are
   untouched, so the plan seed fully determines the fault behaviour. *)
let install_net a =
  Engine.set_network_fault a.a_engine
    (Some
       (fun ~caller ~callee ->
         let cname = caller_name caller in
         let delay = ref 0.0 in
         let drop = ref false in
         List.iter
           (fun r ->
             if
               r.nr_active
               && matches a.a_engine r.nr_src cname
               && matches a.a_engine r.nr_dst callee
             then
               match r.nr_kind with
               | `Delay (d, j) ->
                   let jit = if j > 0.0 then Rng.float a.a_rng (2.0 *. j) -. j else 0.0 in
                   delay := !delay +. Float.max 0.0 (d +. jit)
               | `Drop p -> if Rng.chance a.a_rng p then drop := true)
           a.a_net_rules;
         if !drop then Engine.Net_drop
         else if !delay > 0.0 then Engine.Net_delay !delay
         else Engine.Net_ok))

let refresh_cpu a =
  if Hashtbl.length a.a_cpu = 0 then Engine.set_cpu_fault a.a_engine None
  else begin
    let snapshot = Hashtbl.fold (fun k v acc -> (k, v) :: acc) a.a_cpu [] in
    let snapshot = List.sort compare snapshot in
    Engine.set_cpu_fault a.a_engine
      (Some
         (fun fn ->
           List.fold_left
             (fun acc (pat, f) -> if matches a.a_engine pat fn then acc *. f else acc)
             1.0 snapshot))
  end

let kill_some a ~fn ~count =
  let cids = Array.of_list (Engine.container_ids a.a_engine ~fn) in
  Rng.shuffle a.a_rng cids;
  let n = min count (Array.length cids) in
  let killed = ref 0 in
  for i = 0 to n - 1 do
    if Engine.kill_container a.a_engine ~fn ~cid:cids.(i) then incr killed
  done;
  !killed

let apply a ev =
  match ev.fault with
  | Kill { fn; count } ->
      let killed = kill_some a ~fn ~count in
      record a "kill %s: %d/%d containers" fn killed count
  | Kill_all { fn } ->
      let killed = Engine.kill_all_containers a.a_engine ~fn in
      record a "kill-all %s: %d containers" fn killed
  | Crash_storm { fn; every_us; until_us; count } ->
      record a "crash-storm %s: %d every %.0fus until t+%.0fus" fn count every_us until_us;
      let deadline = a.a_t0 +. until_us in
      let rec tick () =
        if Engine.now a.a_engine <= deadline then begin
          let killed = kill_some a ~fn ~count in
          if killed > 0 then record a "crash-storm %s: killed %d" fn killed;
          Engine.schedule a.a_engine every_us tick
        end
        else record a "crash-storm %s: over" fn
      in
      tick ()
  | Mem_spike { fn; mb; duration_us } ->
      let spiked, oomed = Engine.mem_spike a.a_engine ~fn ~mb ~duration_us in
      record a "mem-spike %s +%.0fMB for %.0fus: %d spiked, %d oom-killed" fn mb duration_us
        spiked oomed
  | Cpu_degrade { fn; factor; duration_us } ->
      let f = Float.max 1e-3 (Float.min 1.0 factor) in
      let cur = Option.value (Hashtbl.find_opt a.a_cpu fn) ~default:1.0 in
      Hashtbl.replace a.a_cpu fn (cur *. f);
      refresh_cpu a;
      record a "cpu-degrade %s x%.3f for %.0fus" fn f duration_us;
      Engine.schedule a.a_engine duration_us (fun () ->
          let cur = Option.value (Hashtbl.find_opt a.a_cpu fn) ~default:1.0 in
          let back = cur /. f in
          if back >= 0.999 then Hashtbl.remove a.a_cpu fn
          else Hashtbl.replace a.a_cpu fn back;
          refresh_cpu a;
          record a "cpu-degrade %s recovered" fn)
  | Image_cache_flush { pull_factor; duration_us } ->
      a.a_flushes <- a.a_flushes + 1;
      Engine.set_cold_pull_factor a.a_engine (Float.max 1.0 pull_factor);
      record a "image-cache-flush x%.1f for %.0fus" pull_factor duration_us;
      Engine.schedule a.a_engine duration_us (fun () ->
          a.a_flushes <- a.a_flushes - 1;
          if a.a_flushes = 0 then begin
            Engine.set_cold_pull_factor a.a_engine 1.0;
            record a "image cache warm again"
          end)
  | Kill_node { node } ->
      let killed = Engine.kill_node a.a_engine ~node in
      record a "kill-node %d: %d containers" node killed
  | Net_delay _ | Net_drop _ ->
      (* Handled by the rule activations scheduled in [arm]. *)
      ()

let arm plan engine =
  let a =
    {
      a_engine = engine;
      a_rng = Rng.create plan.seed;
      a_t0 = Engine.now engine;
      a_trace = [];
      a_net_rules = [];
      a_cpu = Hashtbl.create 8;
      a_flushes = 0;
    }
  in
  List.iter
    (fun ev ->
      let act =
        match ev.fault with
        | Net_delay { src; dst; delay_us; jitter_us; duration_us } ->
            let r =
              { nr_src = src; nr_dst = dst; nr_kind = `Delay (delay_us, jitter_us); nr_active = false }
            in
            a.a_net_rules <- a.a_net_rules @ [ r ];
            fun () ->
              r.nr_active <- true;
              record a "net-delay %s->%s %.0f±%.0fus for %.0fus" src dst delay_us jitter_us
                duration_us;
              Engine.schedule engine duration_us (fun () ->
                  r.nr_active <- false;
                  record a "net-delay %s->%s lifted" src dst)
        | Net_drop { src; dst; p; duration_us } ->
            let r = { nr_src = src; nr_dst = dst; nr_kind = `Drop p; nr_active = false } in
            a.a_net_rules <- a.a_net_rules @ [ r ];
            fun () ->
              r.nr_active <- true;
              record a "net-drop %s->%s p=%.3f for %.0fus" src dst p duration_us;
              Engine.schedule engine duration_us (fun () ->
                  r.nr_active <- false;
                  record a "net-drop %s->%s lifted" src dst)
        | _ -> fun () -> apply a ev
      in
      Engine.schedule engine ev.at_us act)
    plan.events;
  if a.a_net_rules <> [] then install_net a;
  a
