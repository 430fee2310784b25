(* Work-stealing-free parallel map: an atomic index counter hands items to
   worker domains; results land in a pre-sized array, so ordering is by
   construction and no synchronization beyond the counter is needed (each
   slot has exactly one writer, and Domain.join publishes the writes). *)

(* Spawn [d - 1] helper domains running [worker], run [worker] in the
   calling domain too, and join every helper that was actually spawned even
   if a later [Domain.spawn] itself raises (resource exhaustion): workers
   drain a shared counter, so the already-running helpers terminate on
   their own and joining them cannot deadlock. *)
let run_workers d worker =
  let spawned = ref [] in
  (match
     for _ = 1 to d - 1 do
       spawned := Domain.spawn worker :: !spawned
     done
   with
  | () -> worker ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      worker ();
      List.iter Domain.join !spawned;
      Printexc.raise_with_backtrace e bt);
  List.iter Domain.join !spawned

let map_array ?domains f items =
  let n = Array.length items in
  let d = min n (match domains with Some d -> d | None -> Domain.recommended_domain_count ()) in
  if d <= 1 || n <= 1 then Array.map f items
  else begin
    let results : ('b, exn * Printexc.raw_backtrace) result option array = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          results.(i) <-
            Some
              (match f items.(i) with
              | v -> Ok v
              | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      done
    in
    run_workers d worker;
    (* Re-raise the earliest failure deterministically, whichever domain hit
       it. *)
    Array.iter
      (function Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt | Some (Ok _) | None -> ())
      results;
    Array.map (function Some (Ok v) -> v | Some (Error _) | None -> assert false) results
  end

let map ?domains f items = Array.to_list (map_array ?domains f (Array.of_list items))
