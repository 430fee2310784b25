module Ast = Quilt_lang.Ast
module Rng = Quilt_util.Rng

(* Every workload here but [cross_language] is written in Rust. *)
let lang = "rust"

let p ~c ~db ~m = { Workflow.compute_us = c; db_us = db; mem_mb = m }

(* Experiment 3: 6 CPU-heavy GNP clones (300K points each), 2 aggregators
   of 3, and the entry calling both aggregators.  1.6 vCPU / 320 MB
   containers make the fully-merged binary throttle. *)
let modified_nearby_cinema () =
  let fn = Workflow.std_fn ~lang in
  let gnp i =
    fn
      ~name:(Printf.sprintf "gnp-%d" i)
      ~profile:(p ~c:12_000 ~db:2_000 ~m:20)
      ()
  in
  (* Each aggregator walks its three GNP clones sequentially; the entry
     runs the two aggregators in parallel, so a merged-all request demands
     two cores against a 1.6-vCPU limit — the throttling scenario. *)
  let aggregator i members =
    fn
      ~name:(Printf.sprintf "aggregate-%d" i)
      ~profile:(p ~c:4_000 ~db:0 ~m:10)
      ~children:members ~parallel:false ()
  in
  let functions =
    [
      fn ~name:"nearby-cinema-mod"
        ~profile:(p ~c:3_000 ~db:0 ~m:8)
        ~children:[ "aggregate-1"; "aggregate-2" ]
        ~parallel:true ();
      aggregator 1 [ "gnp-1"; "gnp-2"; "gnp-3" ];
      aggregator 2 [ "gnp-4"; "gnp-5"; "gnp-6" ];
      gnp 1; gnp 2; gnp 3; gnp 4; gnp 5; gnp 6;
    ]
  in
  {
    Workflow.wf_name = "nearby-cinema-mod";
    entry = "nearby-cinema-mod";
    functions;
    gen_req = (fun rng -> Printf.sprintf "{\"data\":\"gps%d\"}" (Rng.int rng 40));
    code_edges = Workflow.edges_of functions;
  }

let noop () =
  let functions =
    [ Workflow.std_fn ~lang ~name:"noop" ~profile:(p ~c:0 ~db:0 ~m:0) () ]
  in
  {
    Workflow.wf_name = "noop";
    entry = "noop";
    functions;
    gen_req = (fun rng -> Printf.sprintf "{\"data\":\"n%d\"}" (Rng.int rng 8));
    code_edges = [];
  }

let fan_out ~callee_mem_mb () =
  let worker =
    Workflow.std_fn ~lang ~name:"fan-out-worker"
      ~profile:(p ~c:600 ~db:1_000 ~m:callee_mem_mb)
      ()
  in
  let entry_body =
    (* All futures are spawned before any join, so instances of the callee
       run concurrently — the memory-pressure scenario of Figure 10. *)
    Ast.Json_set_str
      ( Ast.Json_empty,
        "data",
        Ast.Concat
          ( Ast.Str_lit "fan:",
            Ast.Fan_out_all { callee = "fan-out-worker"; count = Ast.Json_get_int (Ast.Var "req", "num") }
          ) )
  in
  let entry =
    {
      Ast.fn_name = "fan-out";
      fn_lang = lang;
      mergeable = true;
      body = Ast.Seq (Ast.Burn (Ast.Int_lit 800), entry_body);
    }
  in
  {
    Workflow.wf_name = "fan-out";
    entry = "fan-out";
    functions = [ entry; worker ];
    gen_req = (fun rng -> Printf.sprintf "{\"num\":%d}" (Rng.int_in rng 1 15));
    code_edges = [ ("fan-out", "fan-out-worker", Quilt_dag.Callgraph.Async) ];
  }

(* Online-control-plane scenario: the entry routes each request down one of
   two 2-function chains based on the request's "route" field.  Chains are
   CPU-sized so that (under a tightened cpu budget, see the adaptive
   scenarios) the entry plus ONE chain fits a container while entry plus
   both chains does not — the optimal merge therefore co-locates the HOT
   chain with the entry, and flipping the request mix between phases
   invalidates the stale decision.  Memory is kept small enough that two
   concurrent in-flight requests never OOM a merged container. *)
let routed_req ~b_share rng =
  let route = if Rng.chance rng b_share then 1 else 0 in
  Printf.sprintf "{\"route\":%d,\"data\":\"r%d\"}" route (Rng.int rng 30)

let routed () =
  let fn = Workflow.std_fn ~lang in
  let path pfx =
    [
      fn
        ~name:(Printf.sprintf "route-%s1" pfx)
        ~profile:(p ~c:3_500 ~db:1_500 ~m:14)
        ~children:[ Printf.sprintf "route-%s2" pfx ]
        ();
      fn ~name:(Printf.sprintf "route-%s2" pfx) ~profile:(p ~c:3_000 ~db:1_500 ~m:14) ();
    ]
  in
  let child_req =
    Ast.Json_set_str (Ast.Json_empty, "data", Ast.Json_get_str (Ast.Var "req", "data"))
  in
  let entry_body =
    Ast.Json_set_str
      ( Ast.Json_empty,
        "data",
        Ast.If
          ( Ast.Json_get_int (Ast.Var "req", "route"),
            Ast.Json_get_str (Ast.Invoke ("route-b1", child_req), "data"),
            Ast.Json_get_str (Ast.Invoke ("route-a1", child_req), "data") ) )
  in
  let entry =
    {
      Ast.fn_name = "route-split";
      fn_lang = lang;
      mergeable = true;
      body =
        Ast.Seq
          (Ast.Use_mem (Ast.Int_lit 8), Ast.Seq (Ast.Burn (Ast.Int_lit 2_500), entry_body));
    }
  in
  let functions = entry :: (path "a" @ path "b") in
  {
    Workflow.wf_name = "routed";
    entry = "route-split";
    functions;
    gen_req = routed_req ~b_share:0.5;
    code_edges = Workflow.edges_of functions;
  }

let cross_language () =
  let chain = [ ("xl-c", "c"); ("xl-cpp", "cpp"); ("xl-rust", "rust"); ("xl-go", "go"); ("xl-swift", "swift") ] in
  let rec build = function
    | [] -> []
    | (name, lang) :: rest ->
        let children = match rest with [] -> [] | (next, _) :: _ -> [ next ] in
        Workflow.std_fn ~lang ~name ~profile:(p ~c:800 ~db:300 ~m:4) ~children () :: build rest
  in
  let functions = build chain in
  {
    Workflow.wf_name = "cross-language";
    entry = "xl-c";
    functions;
    gen_req = (fun rng -> Printf.sprintf "{\"data\":\"x%d\"}" (Rng.int rng 20));
    code_edges = Workflow.edges_of functions;
  }
