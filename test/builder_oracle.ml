(* [Builder.build] as it was before its linear rewrite, kept verbatim as the
   differential oracle: vertex discovery by list search, edges counted
   under (caller, callee) string pairs.  Only the test suite uses it. *)

open Quilt_tracing
module Callgraph = Quilt_dag.Callgraph

let build (st : Trace.store) ~entry ?(window_start = neg_infinity) () =
  let spans = Trace.spans st ~since:window_start () in
  let n_invocations =
    List.length (List.filter (fun (s : Trace.span) -> s.Trace.caller = None && s.Trace.callee = entry) spans)
  in
  if n_invocations = 0 then Error (Printf.sprintf "no invocations of %s in the window" entry)
  else begin
    (* Vertex discovery: entry first, then every function seen. *)
    let names = ref [ entry ] in
    let note n = if not (List.mem n !names) then names := !names @ [ n ] in
    List.iter
      (fun (s : Trace.span) ->
        (match s.Trace.caller with Some c -> note c | None -> ());
        note s.Trace.callee)
      spans;
    let names = !names in
    let index = Hashtbl.create 16 in
    List.iteri (fun i n -> Hashtbl.replace index n i) names;
    (* Edge counting. *)
    let edges = Hashtbl.create 16 in
    List.iter
      (fun (s : Trace.span) ->
        match s.Trace.caller with
        | None -> ()
        | Some c ->
            let key = (c, s.Trace.callee) in
            let count, asyncs =
              match Hashtbl.find_opt edges key with Some (n, a) -> (n, a) | None -> (0, false)
            in
            Hashtbl.replace edges key (count + 1, asyncs || s.Trace.kind = Trace.Async))
      spans;
    (* Resources per function: average CPU per invocation, peak memory,
       aggregated across that function's containers (§3). *)
    let resources fn =
      let samples = Trace.resource_samples st ~fn in
      let samples = List.filter (fun (r : Trace.resource_sample) -> r.Trace.rs_ts >= window_start) samples in
      match samples with
      | [] -> (1.0, 1.0)
      | _ ->
          (* Cumulative counters: take per-container maxima and sum. *)
          let by_container = Hashtbl.create 8 in
          List.iter
            (fun (r : Trace.resource_sample) ->
              let cpu, inv, mem =
                match Hashtbl.find_opt by_container r.Trace.container with
                | Some (c, i, m) -> (c, i, m)
                | None -> (0.0, 0, 0.0)
              in
              Hashtbl.replace by_container r.Trace.container
                (Float.max cpu r.Trace.cpu_us_cum, max inv r.Trace.invocations_cum, Float.max mem r.Trace.mem_mb))
            samples;
          let total_cpu = ref 0.0 and total_inv = ref 0 and peak_mem = ref 0.0 in
          Hashtbl.iter
            (fun _ (cpu, inv, mem) ->
              total_cpu := !total_cpu +. cpu;
              total_inv := !total_inv + inv;
              peak_mem := Float.max !peak_mem mem)
            by_container;
          let avg_cpu_ms = if !total_inv = 0 then 0.0 else !total_cpu /. float_of_int !total_inv /. 1000.0 in
          (Float.max 0.01 avg_cpu_ms, Float.max 0.5 !peak_mem)
    in
    let nodes =
      Array.of_list
        (List.mapi
           (fun i name ->
             let cpu, mem = resources name in
             { Callgraph.id = i; name; mem_mb = mem; cpu; mergeable = true })
           names)
    in
    let edge_list =
      Hashtbl.fold
        (fun (c, d) (count, asyncs) acc ->
          {
            Callgraph.src = Hashtbl.find index c;
            dst = Hashtbl.find index d;
            weight = count;
            kind = (if asyncs then Callgraph.Async else Callgraph.Sync);
          }
          :: acc)
        edges []
    in
    (* Deterministic order for reproducibility. *)
    let edge_list =
      List.sort (fun a b -> compare (a.Callgraph.src, a.Callgraph.dst) (b.Callgraph.src, b.Callgraph.dst)) edge_list
    in
    match
      Callgraph.make ~nodes ~edges:edge_list ~root:(Hashtbl.find index entry)
        ~invocations:n_invocations
    with
    | g -> Ok g
    | exception Invalid_argument msg -> Error msg
  end
