module Callgraph = Quilt_dag.Callgraph

type edge_count = { mutable count : int; mutable asyncs : bool }

let build (st : Trace.store) ~entry ?(window_start = neg_infinity) () =
  (* One pass over the window: intern names in discovery order (entry
     first), count entry invocations, and count edges under [src lsl 30 lor
     dst]. *)
  let index = Hashtbl.create 16 and names = ref [ entry ] in
  Hashtbl.add index entry 0;
  let id n =
    match Hashtbl.find index n with
    | i -> i
    | exception Not_found ->
        let i = Hashtbl.length index in
        Hashtbl.add index n i;
        names := n :: !names;
        i
  in
  let edges = Hashtbl.create 16 and n_invocations = ref 0 in
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.caller with
      | None ->
          ignore (id s.Trace.callee);
          if s.Trace.callee = entry then incr n_invocations
      | Some c -> (
          let src = id c in
          let key = (src lsl 30) lor id s.Trace.callee and async = s.Trace.kind = Trace.Async in
          match Hashtbl.find edges key with
          | e ->
              e.count <- e.count + 1;
              e.asyncs <- e.asyncs || async
          | exception Not_found -> Hashtbl.add edges key { count = 1; asyncs = async }))
    (Trace.spans st ~since:window_start ());
  if !n_invocations = 0 then Error (Printf.sprintf "no invocations of %s in the window" entry)
  else begin
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
           (List.rev !names))
    in
    (* Sorted by (src, dst), which is key order, for reproducibility. *)
    let edge_list =
      List.map
        (fun (key, e) ->
          {
            Callgraph.src = key lsr 30;
            dst = key land ((1 lsl 30) - 1);
            weight = e.count;
            kind = (if e.asyncs then Callgraph.Async else Callgraph.Sync);
          })
        (List.sort
           (fun (a, _) (b, _) -> Int.compare a b)
           (Hashtbl.fold (fun key e acc -> (key, e) :: acc) edges []))
    in
    match Callgraph.make ~nodes ~edges:edge_list ~root:0 ~invocations:!n_invocations with
    | g -> Ok g
    | exception Invalid_argument msg -> Error msg
  end

let known_calls ~code_edges (g : Callgraph.t) =
  let missing =
    List.filter_map
      (fun (c, d, kind) ->
        match Callgraph.find_node g c, Callgraph.find_node g d with
        | Some nc, Some nd ->
            let exists =
              List.exists
                (fun (e : Callgraph.edge) -> e.Callgraph.src = nc.Callgraph.id && e.Callgraph.dst = nd.Callgraph.id)
                g.Callgraph.edges
            in
            if exists then None
            else Some { Callgraph.src = nc.Callgraph.id; dst = nd.Callgraph.id; weight = 0; kind }
        | _ -> None)
      code_edges
  in
  if missing = [] then g
  else
    Callgraph.make ~nodes:g.Callgraph.nodes ~edges:(g.Callgraph.edges @ missing) ~root:g.Callgraph.root
      ~invocations:g.Callgraph.invocations
