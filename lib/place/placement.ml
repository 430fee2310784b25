(* Placement policies over a cluster topology.  Pure, deterministic
   functions: the only randomness is a seed-derived permutation used to
   break exact score ties, so equal seeds give identical placements and the
   qcheck invariants in test_place.ml can pin capacity safety, determinism,
   and placed-or-rejected totality. *)

type demand = { d_service : string; d_vcpus : float; d_mem_mb : float }
type affinity = { a_src : string; a_dst : string; a_weight : float }
type policy = First_fit | Best_fit | Locality | Spread

type t = {
  placed : (string * int) list;
  rejected : (string * string) list;
}

let policy_name = function
  | First_fit -> "first-fit"
  | Best_fit -> "best-fit"
  | Locality -> "locality"
  | Spread -> "spread"

let policy_of_string = function
  | "first-fit" | "firstfit" | "ff" -> Some First_fit
  | "best-fit" | "bestfit" | "bf" -> Some Best_fit
  | "locality" | "loc" -> Some Locality
  | "spread" -> Some Spread
  | _ -> None

let demand ~service ~vcpus ~mem_mb =
  { d_service = service; d_vcpus = vcpus; d_mem_mb = mem_mb }

let node_of t service = List.assoc_opt service t.placed

(* Mutable per-node accounting during a single plan run. *)
type slot = { node : Topology.node; mutable free_vcpus : float; mutable free_mem : float }

let cross_rack_weight topo t affinities =
  match topo with
  | Topology.Flat -> 0.0
  | Topology.Cluster c ->
      List.fold_left
        (fun acc a ->
          match (node_of t a.a_src, node_of t a.a_dst) with
          | Some u, Some v when Topology.dist c u v = Topology.Cross_rack ->
              acc +. a.a_weight
          | _ -> acc)
        0.0 affinities

let plan ?(seed = 0) ?(affinities = []) topo policy demands =
  match topo with
  | Topology.Flat ->
      (* The seed world: one implicit node with unbounded capacity. *)
      { placed = List.map (fun d -> (d.d_service, 0)) demands; rejected = [] }
  | Topology.Cluster c ->
      let n = Array.length c.nodes in
      let slots =
        Array.map
          (fun (nd : Topology.node) ->
            { node = nd; free_vcpus = nd.vcpus; free_mem = nd.mem_mb })
          c.nodes
      in
      (* Seeded tie-break permutation: rank.(i) orders node i among exact
         score ties.  Equal seeds => equal ranks => identical placements. *)
      let rank =
        let ids = Array.init n (fun i -> i) in
        Quilt_util.Rng.shuffle (Quilt_util.Rng.create seed) ids;
        let r = Array.make n 0 in
        Array.iteri (fun pos id -> r.(id) <- pos) ids;
        r
      in
      (* Affinity lookup: total per service (for ordering) and per directed
         pair (for scoring against already-placed partners). *)
      let total_aff = Hashtbl.create 16 in
      let partner_aff = Hashtbl.create 16 in
      List.iter
        (fun a ->
          let add tbl k w =
            Hashtbl.replace tbl k
              (w +. match Hashtbl.find_opt tbl k with Some x -> x | None -> 0.0)
          in
          add total_aff a.a_src a.a_weight;
          add total_aff a.a_dst a.a_weight;
          add partner_aff (a.a_src, a.a_dst) a.a_weight;
          add partner_aff (a.a_dst, a.a_src) a.a_weight)
        affinities;
      let total_of s =
        match Hashtbl.find_opt total_aff s with Some w -> w | None -> 0.0
      in
      let order =
        match policy with
        | Locality ->
            (* Heaviest communicators first, so the hot core of the graph
               claims co-location before stragglers fill the gaps.  Stable
               sort keeps equal-affinity demands in input order. *)
            List.stable_sort
              (fun a b -> compare (total_of b.d_service) (total_of a.d_service))
              demands
        | First_fit | Best_fit | Spread -> demands
      in
      let placed = ref [] and rejected = ref [] in
      let placed_node s = List.assoc_opt s !placed in
      (* Spread bookkeeping: demands already hosted per node / per rack. *)
      let per_node = Array.make n 0 in
      let per_rack =
        Array.make
          (Array.fold_left (fun acc nd -> max acc (nd.Topology.rack + 1)) 1 c.nodes)
          0
      in
      let feasible sl d =
        sl.free_vcpus >= d.d_vcpus && sl.free_mem >= d.d_mem_mb
      in
      (* Lower score wins; ties by seeded rank. *)
      let score d i =
        let sl = slots.(i) in
        match policy with
        | First_fit -> float_of_int rank.(i)
        | Best_fit ->
            ((sl.free_vcpus -. d.d_vcpus) /. sl.node.vcpus)
            +. ((sl.free_mem -. d.d_mem_mb) /. sl.node.mem_mb)
        | Spread ->
            (* Fewest rack neighbours, then node neighbours, then the most
               free capacity — lexicographic via wide factors. *)
            (float_of_int per_rack.(sl.node.rack) *. 1e6)
            +. (float_of_int per_node.(i) *. 1e3)
            -. (sl.free_vcpus /. sl.node.vcpus)
        | Locality ->
            let partners = ref 0.0 in
            List.iter
              (fun (s, j) ->
                match Hashtbl.find_opt partner_aff (d.d_service, s) with
                | Some w ->
                    partners :=
                      !partners
                      +. (w *. Topology.rtt_us topo ~default_rtt_us:0.0 i j)
                | None -> ())
              !placed;
            if !partners > 0.0 then !partners
            else
              (* No placed partners yet: spread-style, so independent
                 services don't pile onto node 0 and starve locality. *)
              (float_of_int per_rack.(sl.node.rack) *. 1e6)
              +. (float_of_int per_node.(i) *. 1e3)
              -. (sl.free_vcpus /. sl.node.vcpus)
      in
      List.iter
        (fun d ->
          if d.d_vcpus <= 0.0 || d.d_mem_mb <= 0.0 then
            rejected := (d.d_service, "non-positive demand") :: !rejected
          else if placed_node d.d_service <> None then
            rejected := (d.d_service, "duplicate service") :: !rejected
          else begin
            let best = ref (-1) and best_score = ref infinity in
            for i = 0 to n - 1 do
              if feasible slots.(i) d then begin
                let s = score d i in
                if
                  s < !best_score
                  || (s = !best_score && !best >= 0 && rank.(i) < rank.(!best))
                then begin
                  best := i;
                  best_score := s
                end
              end
            done;
            match !best with
            | -1 ->
                rejected :=
                  ( d.d_service,
                    Printf.sprintf "no node fits %.1f vcpus / %.0f MB"
                      d.d_vcpus d.d_mem_mb )
                  :: !rejected
            | i ->
                let sl = slots.(i) in
                sl.free_vcpus <- sl.free_vcpus -. d.d_vcpus;
                sl.free_mem <- sl.free_mem -. d.d_mem_mb;
                per_node.(i) <- per_node.(i) + 1;
                per_rack.(sl.node.rack) <- per_rack.(sl.node.rack) + 1;
                placed := (d.d_service, i) :: !placed
          end)
        order;
      { placed = List.rev !placed; rejected = List.rev !rejected }

let pp fmt t =
  List.iter
    (fun (s, i) -> Format.fprintf fmt "%-28s -> node %d@." s i)
    t.placed;
  List.iter
    (fun (s, why) -> Format.fprintf fmt "%-28s REJECTED (%s)@." s why)
    t.rejected
