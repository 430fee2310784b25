type call_kind = Sync | Async

type span = { ts : float; caller : string option; callee : string; kind : call_kind }

type resource_sample = {
  rs_ts : float;
  container : int;
  fn : string;
  cpu_us_cum : float;
  mem_mb : float;
  invocations_cum : int;
}

type store = {
  mutable spans_rev : span list;
  mutable n_spans : int;
  resources : (string, resource_sample list ref) Hashtbl.t;
}

let create () = { spans_rev = []; n_spans = 0; resources = Hashtbl.create 32 }

let record_span st s =
  st.spans_rev <- s :: st.spans_rev;
  st.n_spans <- st.n_spans + 1

let record_resource st r =
  match Hashtbl.find_opt st.resources r.fn with
  | Some l -> l := r :: !l
  | None -> Hashtbl.replace st.resources r.fn (ref [ r ])

let spans st ?(since = neg_infinity) () =
  List.rev (List.filter (fun s -> s.ts >= since) st.spans_rev)

let count_spans st ?(since = neg_infinity) p =
  List.fold_left (fun n s -> if s.ts >= since && p s then n + 1 else n) 0 st.spans_rev

let resource_samples st ~fn =
  match Hashtbl.find_opt st.resources fn with
  | Some l -> List.rev !l
  | None -> []

let span_count st = st.n_spans

let evict_before st t =
  st.spans_rev <- List.filter (fun s -> s.ts >= t) st.spans_rev;
  st.n_spans <- List.length st.spans_rev;
  let empty = ref [] in
  Hashtbl.iter
    (fun fn l ->
      l := List.filter (fun r -> r.rs_ts >= t) !l;
      if !l = [] then empty := fn :: !empty)
    st.resources;
  List.iter (fun fn -> Hashtbl.remove st.resources fn) !empty
