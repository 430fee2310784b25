(* Conditional invocations under unrepresentative profiling (§5.6, Fig 10):

   $ dune exec examples/fanout_guard.exe

   A function fans out to a memory-heavy callee a data-dependent number of
   times.  Profiling saw a fan-out of up to 8, so the merged binary was
   provisioned for 8 in-process instances.  Clients then send num up to 15:
   without the conditional guard the merged process exceeds its memory
   limit and is killed; with it, the first 8 calls stay local and the rest
   fall back to remote invocations.  Exits 1 unless the unguarded merge
   crashes exactly when num exceeds 8 and the guarded one never does. *)

module Engine = Quilt_platform.Engine
module Special = Quilt_apps.Special
module Quilt = Quilt_core.Quilt

let alpha = 8

let spec ~guarded =
  {
    Engine.service = "fan-out";
    vcpus = 2.0;
    mem_limit_mb = 128.0;
    base_mem_mb = 8.0;
    image_mb = 30.0;
    max_scale = 20;
    eager_http = false;
    mode =
      Engine.Merged
        {
          members = [ "fan-out"; "fan-out-worker" ];
          guards = (if guarded then [ (("fan-out", "fan-out-worker"), alpha) ] else []);
        };
  }

let run_one engine num =
  let result = ref None in
  Engine.submit engine ~entry:"fan-out"
    ~req:(Printf.sprintf "{\"num\":%d}" num)
    ~on_done:(fun ~latency_us ~ok -> result := Some (latency_us, ok));
  Engine.drain engine;
  Option.get !result

let () =
  let wf = Special.fan_out ~callee_mem_mb:14 () in
  Printf.printf "profiled fan-out edge: alpha = %d; callee holds 14 MB per instance\n\n" alpha;
  Printf.printf "  %-5s %-22s %-22s\n" "num" "merged, no guard" "merged, guarded";
  let unexpected =
    List.filter
      (fun num ->
        let unguarded = Quilt.fresh_platform ~workflows:[ wf ] () in
        Engine.deploy unguarded (spec ~guarded:false);
        ignore (run_one unguarded 1);
        let lat_u, ok_u = run_one unguarded num in
        let guarded = Quilt.fresh_platform ~workflows:[ wf ] () in
        Engine.deploy guarded (spec ~guarded:true);
        (* Warm both the merged container and the standalone worker that
           overflow calls fall back to. *)
        ignore (run_one guarded 1);
        ignore (run_one guarded 10);
        let remote () = (Engine.counters guarded).Engine.remote_invocations in
        let before = remote () in
        let lat_g, ok_g = run_one guarded num in
        let overflow = remote () - before in
        let show ok lat = if ok then Printf.sprintf "%.1f ms" (lat /. 1000.0) else "CRASH (OOM)" in
        Printf.printf "  %-5d %-22s %-22s %s\n" num (show ok_u lat_u) (show ok_g lat_g)
          (if overflow > 0 then Printf.sprintf "(%d overflow calls went remote)" overflow else "");
        (* Without the guard the merged process survives exactly the
           profiled fan-out; with it, every request succeeds. *)
        ok_u <> (num <= alpha) || not ok_g)
      [ 2; 6; 8; 10; 12; 15 ]
  in
  if unexpected <> [] then begin
    Printf.printf "\nunexpected outcome for num = %s\n"
      (String.concat ", " (List.map string_of_int unexpected));
    exit 1
  end
