module Ast = Quilt_lang.Ast
module Rng = Quilt_util.Rng

(* Every DeathStarBench function here is written in Rust. *)
let lang = "rust"

let p ~c ~db ~m = { Workflow.compute_us = c; db_us = db; mem_mb = m }

let gen_data_req prefix rng =
  Printf.sprintf "{\"data\":\"%s%d\"}" prefix (Rng.int rng 40)

let make_workflow ~wf_name ~entry ~functions ~req_prefix =
  {
    Workflow.wf_name;
    entry;
    functions;
    gen_req = gen_data_req req_prefix;
    code_edges = Workflow.edges_of functions;
  }

(* --- Social Network (Figure 14) --- *)

let social_network ~async () =
  let fn = Workflow.std_fn ~lang in
  (* compose-post: the entry fans out to text handling and metadata
     services, then persists and propagates to timelines. *)
  let compose_post =
    [
      fn ~name:"compose-post"
        ~profile:(p ~c:900 ~db:0 ~m:2)
        ~children:[ "text-service"; "unique-id-service"; "media-service"; "user-service"; "post-storage-service"; "write-home-timeline" ]
        ~parallel:async ();
      fn ~name:"text-service"
        ~profile:(p ~c:1200 ~db:0 ~m:3)
        ~children:[ "url-shorten-service"; "user-mention-service" ]
        ~parallel:async ();
      fn ~name:"url-shorten-service" ~profile:(p ~c:500 ~db:800 ~m:2) ();
      fn ~name:"user-mention-service" ~profile:(p ~c:600 ~db:900 ~m:2) ();
      fn ~name:"unique-id-service" ~profile:(p ~c:150 ~db:0 ~m:1) ();
      fn ~name:"media-service" ~profile:(p ~c:700 ~db:1100 ~m:3) ();
      fn ~name:"user-service" ~profile:(p ~c:400 ~db:900 ~m:2) ();
      fn ~name:"post-storage-service" ~profile:(p ~c:600 ~db:1500 ~m:2) ();
      fn ~name:"write-home-timeline"
        ~profile:(p ~c:700 ~db:1000 ~m:2)
        ~children:[ "social-graph-service"; "user-timeline-service" ]
        ~parallel:async ();
      fn ~name:"social-graph-service" ~profile:(p ~c:500 ~db:1200 ~m:2) ();
      fn ~name:"user-timeline-service" ~profile:(p ~c:450 ~db:1300 ~m:2) ();
    ]
  in
  (* follow-with-uname: resolves both usernames (two calls to the same
     lookup), then updates the graph. *)
  let follow =
    [
      fn ~name:"follow-with-uname"
        ~profile:(p ~c:400 ~db:0 ~m:2)
        ~children:[ "uname-to-id"; "social-graph-follow" ]
        ~repeat:[ ("uname-to-id", 1) ]
        ();
      fn ~name:"uname-to-id" ~profile:(p ~c:250 ~db:800 ~m:1) ();
      fn ~name:"social-graph-follow"
        ~profile:(p ~c:500 ~db:1100 ~m:2)
        ~children:[ "graph-cache-update" ]
        ();
      fn ~name:"graph-cache-update" ~profile:(p ~c:300 ~db:600 ~m:1) ();
    ]
  in
  let read_home =
    [
      fn ~name:"read-home-timeline"
        ~profile:(p ~c:800 ~db:900 ~m:3)
        ~children:[ "post-fetch" ] ();
      fn ~name:"post-fetch" ~profile:(p ~c:900 ~db:1400 ~m:3) ();
    ]
  in
  [
    make_workflow ~wf_name:"compose-post" ~entry:"compose-post" ~functions:compose_post ~req_prefix:"post";
    make_workflow ~wf_name:"follow-with-uname" ~entry:"follow-with-uname" ~functions:follow ~req_prefix:"usr";
    make_workflow ~wf_name:"read-home-timeline" ~entry:"read-home-timeline" ~functions:read_home
      ~req_prefix:"tl";
  ]

(* --- Media / Movie Review (Figure 3) --- *)

let media ~async () =
  let fn = Workflow.std_fn ~lang in
  (* compose-review: five upload-* stages each feed the shared
     compose-and-upload (Figure 3's many-callers vertex). *)
  let compose_review =
    [
      fn ~name:"compose-review"
        ~profile:(p ~c:800 ~db:0 ~m:3)
        ~children:[ "upload-unique-id"; "upload-text"; "upload-user-id"; "upload-rating"; "upload-movie-id" ]
        ~parallel:async ();
      fn ~name:"upload-unique-id" ~profile:(p ~c:200 ~db:0 ~m:1) ~children:[ "compose-and-upload" ] ();
      fn ~name:"upload-text"
        ~profile:(p ~c:700 ~db:0 ~m:2)
        ~children:[ "text-filter"; "compose-and-upload" ]
        ();
      fn ~name:"text-filter" ~profile:(p ~c:900 ~db:0 ~m:2) ();
      fn ~name:"upload-user-id"
        ~profile:(p ~c:300 ~db:0 ~m:1)
        ~children:[ "user-lookup"; "compose-and-upload" ]
        ();
      fn ~name:"user-lookup" ~profile:(p ~c:250 ~db:900 ~m:2) ();
      fn ~name:"upload-rating"
        ~profile:(p ~c:250 ~db:0 ~m:1)
        ~children:[ "rating-service"; "compose-and-upload" ]
        ();
      fn ~name:"rating-service" ~profile:(p ~c:350 ~db:700 ~m:1) ();
      fn ~name:"upload-movie-id"
        ~profile:(p ~c:300 ~db:0 ~m:1)
        ~children:[ "movie-id-lookup"; "compose-and-upload" ]
        ();
      fn ~name:"movie-id-lookup" ~profile:(p ~c:300 ~db:800 ~m:2) ();
      fn ~name:"compose-and-upload"
        ~profile:(p ~c:600 ~db:0 ~m:2)
        ~children:[ "review-storage"; "user-review-db"; "movie-review-db" ]
        ~parallel:async ();
      fn ~name:"review-storage" ~profile:(p ~c:400 ~db:1300 ~m:2) ();
      fn ~name:"user-review-db" ~profile:(p ~c:350 ~db:1200 ~m:2) ();
      fn ~name:"movie-review-db"
        ~profile:(p ~c:400 ~db:1100 ~m:2)
        ~children:[ "review-cache" ] ();
      fn ~name:"review-cache" ~profile:(p ~c:250 ~db:500 ~m:1) ();
    ]
  in
  let page_service =
    [
      fn ~name:"page-service"
        ~profile:(p ~c:700 ~db:0 ~m:3)
        ~children:[ "movie-info"; "plot-service"; "cast-info"; "review-list" ]
        ~parallel:async ();
      fn ~name:"movie-info" ~profile:(p ~c:500 ~db:1000 ~m:2) ();
      fn ~name:"plot-service" ~profile:(p ~c:400 ~db:900 ~m:2) ();
      fn ~name:"cast-info" ~profile:(p ~c:450 ~db:950 ~m:2) ();
      fn ~name:"review-list"
        ~profile:(p ~c:600 ~db:800 ~m:2)
        ~children:[ "review-cache-read" ] ();
      fn ~name:"review-cache-read" ~profile:(p ~c:300 ~db:600 ~m:1) ();
    ]
  in
  let read_user_review =
    [
      fn ~name:"read-user-review"
        ~profile:(p ~c:700 ~db:800 ~m:3)
        ~children:[ "user-review-fetch" ] ();
      fn ~name:"user-review-fetch" ~profile:(p ~c:800 ~db:1500 ~m:3) ();
    ]
  in
  [
    make_workflow ~wf_name:"compose-review" ~entry:"compose-review" ~functions:compose_review
      ~req_prefix:"rev";
    make_workflow ~wf_name:"page-service" ~entry:"page-service" ~functions:page_service ~req_prefix:"pg";
    make_workflow ~wf_name:"read-user-review" ~entry:"read-user-review" ~functions:read_user_review
      ~req_prefix:"ur";
  ]

(* --- Hotel Reservation (Figure 16): multi-second functions (§7.3.1). --- *)

let hotel () =
  let fn = Workflow.std_fn ~lang in
  let search =
    [
      fn ~name:"search-handler"
        ~profile:(p ~c:450_000 ~db:0 ~m:6)
        ~children:[ "geo-service"; "rate-service" ]
        ();
      fn ~name:"geo-service"
        ~profile:(p ~c:600_000 ~db:120_000 ~m:8)
        ~children:[ "nearby-lookup" ] ();
      fn ~name:"nearby-lookup" ~profile:(p ~c:350_000 ~db:90_000 ~m:5) ();
      fn ~name:"rate-service"
        ~profile:(p ~c:500_000 ~db:100_000 ~m:6)
        ~children:[ "rate-db"; "discount-service" ]
        ();
      fn ~name:"rate-db" ~profile:(p ~c:250_000 ~db:180_000 ~m:4) ();
      fn ~name:"discount-service" ~profile:(p ~c:200_000 ~db:60_000 ~m:3) ();
    ]
  in
  let reservation =
    [
      fn ~name:"reservation-handler"
        ~profile:(p ~c:700_000 ~db:0 ~m:5)
        ~children:[ "availability-check"; "reserve-db" ]
        ();
      fn ~name:"availability-check" ~profile:(p ~c:550_000 ~db:150_000 ~m:5) ();
      fn ~name:"reserve-db" ~profile:(p ~c:300_000 ~db:250_000 ~m:4) ();
    ]
  in
  let nearby_cinema =
    [
      fn ~name:"nearby-cinema"
        ~profile:(p ~c:400_000 ~db:0 ~m:5)
        ~children:[ "get-nearby-points" ] ();
      fn ~name:"get-nearby-points" ~profile:(p ~c:650_000 ~db:120_000 ~m:7) ();
    ]
  in
  [
    make_workflow ~wf_name:"search-handler" ~entry:"search-handler" ~functions:search ~req_prefix:"s";
    make_workflow ~wf_name:"reservation-handler" ~entry:"reservation-handler" ~functions:reservation
      ~req_prefix:"rsv";
    make_workflow ~wf_name:"nearby-cinema" ~entry:"nearby-cinema" ~functions:nearby_cinema ~req_prefix:"nc";
  ]

let all ~async () = social_network ~async () @ media ~async () @ hotel ()
