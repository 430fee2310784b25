
type rate_shift = {
  rs_src : string;
  rs_dst : string;
  rate_old : float;
  rate_new : float;
  rs_rel : float;
}

type alpha_shift = { as_src : string; as_dst : string; alpha_old : int; alpha_new : int }

type resource_shift = {
  fn : string;
  cpu_old : float;
  cpu_new : float;
  mem_old : float;
  mem_new : float;
  rel_cpu : float;
  rel_mem : float;
}

type report = {
  threshold : float;
  added_nodes : string list;
  removed_nodes : string list;
  added_edges : (string * string) list;
  removed_edges : (string * string) list;
  rate_shifts : rate_shift list;
  alpha_shifts : alpha_shift list;
  resource_shifts : resource_shift list;
  optin_flips : string list;
}

let rel a b = if a = 0.0 then Float.abs b else Float.abs (b -. a) /. a

(* Per-graph lookup tables keyed by function name / name pair. *)
let node_table (g : Callgraph.t) =
  let tbl = Hashtbl.create 16 in
  Array.iter (fun (n : Callgraph.node) -> Hashtbl.replace tbl n.Callgraph.name n) g.Callgraph.nodes;
  tbl

let edge_table (g : Callgraph.t) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Callgraph.edge) ->
      let key =
        ( (Callgraph.node g e.Callgraph.src).Callgraph.name,
          (Callgraph.node g e.Callgraph.dst).Callgraph.name )
      in
      Hashtbl.replace tbl key e)
    g.Callgraph.edges;
  tbl

let detect ?(threshold = 0.3) (old_g : Callgraph.t) (new_g : Callgraph.t) =
  let old_nodes = node_table old_g and new_nodes = node_table new_g in
  let old_edges = edge_table old_g and new_edges = edge_table new_g in
  let names tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  let added_nodes = List.filter (fun n -> not (Hashtbl.mem old_nodes n)) (names new_nodes) in
  let removed_nodes = List.filter (fun n -> not (Hashtbl.mem new_nodes n)) (names old_nodes) in
  let added_edges = List.filter (fun k -> not (Hashtbl.mem old_edges k)) (names new_edges) in
  let removed_edges = List.filter (fun k -> not (Hashtbl.mem new_edges k)) (names old_edges) in
  let rate g (e : Callgraph.edge) =
    float_of_int e.Callgraph.weight /. float_of_int (max 1 g.Callgraph.invocations)
  in
  (* Rate and α over the common edges, in old-graph name order. *)
  let rate_shifts = ref [] and alpha_shifts = ref [] in
  List.iter
    (fun key ->
      match Hashtbl.find_opt new_edges key with
      | None -> ()
      | Some e_new ->
          let e_old = Hashtbl.find old_edges key in
          let r_old = rate old_g e_old and r_new = rate new_g e_new in
          let r = rel r_old r_new in
          if r > threshold then
            rate_shifts :=
              { rs_src = fst key; rs_dst = snd key; rate_old = r_old; rate_new = r_new; rs_rel = r }
              :: !rate_shifts;
          let a_old = Callgraph.alpha old_g e_old and a_new = Callgraph.alpha new_g e_new in
          if a_old <> a_new then
            alpha_shifts :=
              { as_src = fst key; as_dst = snd key; alpha_old = a_old; alpha_new = a_new }
              :: !alpha_shifts)
    (names old_edges);
  (* Resources and opt-in over the common vertices. *)
  let resource_shifts = ref [] and optin_flips = ref [] in
  List.iter
    (fun name ->
      match Hashtbl.find_opt new_nodes name with
      | None -> ()
      | Some (n_new : Callgraph.node) ->
          let n_old = Hashtbl.find old_nodes name in
          let rc = rel n_old.Callgraph.cpu n_new.Callgraph.cpu in
          let rm = rel n_old.Callgraph.mem_mb n_new.Callgraph.mem_mb in
          if rc > threshold || rm > threshold then
            resource_shifts :=
              {
                fn = name;
                cpu_old = n_old.Callgraph.cpu;
                cpu_new = n_new.Callgraph.cpu;
                mem_old = n_old.Callgraph.mem_mb;
                mem_new = n_new.Callgraph.mem_mb;
                rel_cpu = rc;
                rel_mem = rm;
              }
              :: !resource_shifts;
          if n_old.Callgraph.mergeable <> n_new.Callgraph.mergeable then
            optin_flips := name :: !optin_flips)
    (names old_nodes);
  {
    threshold;
    added_nodes;
    removed_nodes;
    added_edges;
    removed_edges;
    rate_shifts = List.rev !rate_shifts;
    alpha_shifts = List.rev !alpha_shifts;
    resource_shifts = List.rev !resource_shifts;
    optin_flips = List.rev !optin_flips;
  }

let topology_changed r =
  r.added_nodes <> [] || r.removed_nodes <> [] || r.added_edges <> [] || r.removed_edges <> []

let drifted r =
  topology_changed r || r.rate_shifts <> [] || r.alpha_shifts <> [] || r.resource_shifts <> []
  || r.optin_flips <> []

let describe r =
  if not (drifted r) then "no drift"
  else begin
    let buf = Buffer.create 128 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    List.iter (fun n -> line "vertex %s appeared" n) r.added_nodes;
    List.iter (fun n -> line "vertex %s disappeared" n) r.removed_nodes;
    List.iter (fun (a, b) -> line "edge %s->%s appeared" a b) r.added_edges;
    List.iter (fun (a, b) -> line "edge %s->%s disappeared" a b) r.removed_edges;
    List.iter
      (fun s -> line "edge %s->%s rate %.3f -> %.3f (%.0f%%)" s.rs_src s.rs_dst s.rate_old s.rate_new (100.0 *. s.rs_rel))
      r.rate_shifts;
    List.iter
      (fun s -> line "edge %s->%s alpha %d -> %d" s.as_src s.as_dst s.alpha_old s.alpha_new)
      r.alpha_shifts;
    List.iter
      (fun s ->
        line "fn %s cpu %.2f -> %.2f vCPU.ms, mem %.1f -> %.1f MB" s.fn s.cpu_old s.cpu_new s.mem_old
          s.mem_new)
      r.resource_shifts;
    List.iter (fun n -> line "fn %s opt-in flipped" n) r.optin_flips;
    String.trim (Buffer.contents buf)
  end
