(* Unit and property tests for the discrete-event core. *)

module Engine = Asvm_simcore.Engine
module Event_queue = Asvm_simcore.Event_queue
module Station = Asvm_simcore.Station
module Rng = Asvm_simcore.Rng
module Stats = Asvm_simcore.Stats
module Int_tbl = Asvm_simcore.Int_tbl
module Pair_tbl = Asvm_simcore.Pair_tbl

let test_queue_order () =
  let q = Event_queue.create () in
  let order = ref [] in
  let ev tag () = order := tag :: !order in
  Event_queue.add q ~time:3.0 ~seq:0 (ev "c");
  Event_queue.add q ~time:1.0 ~seq:1 (ev "a");
  Event_queue.add q ~time:2.0 ~seq:2 (ev "b");
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, _, run) ->
      run ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  let order = ref [] in
  for i = 0 to 9 do
    Event_queue.add q ~time:1.0 ~seq:i (fun () -> order := i :: !order)
  done;
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, _, run) ->
      run ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int))
    "seq order on equal times"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !order)

let test_queue_heap_property =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i time -> Event_queue.add q ~time ~seq:i ignore) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (time, _, _) -> time >= last && drain time
      in
      drain neg_infinity)

(* Adds and pops interleaved at random, checked against a sorted list of
   (time, seq).  Times come from a handful of values, so most pops break
   a tie on seq.  A case runs rounds; each round mostly adds (so the
   queue usually grows past its initial capacity of 64), then drains to
   empty before the next refills it.  After each drain no popped closure
   may still be reachable from the queue. *)
type queue_op = Add of int | Pop

let queue_ops =
  let open QCheck.Gen in
  let op = frequency [ (3, map (fun t -> Add t) (int_bound 7)); (1, return Pop) ] in
  list_size (int_range 1 4) (list_size (int_bound 400) op)

(* Kept out of line so that no reference to [block] or the closure stays
   in the caller's frame. *)
let add_watched q ~time ~seq ~ran ~watch =
  let block = ref seq in
  Weak.set watch seq (Some block);
  Event_queue.add q ~time ~seq (fun () -> ran := !block)

let test_queue_matches_model =
  QCheck.Test.make ~name:"event queue pops interleaved adds in (time, seq) order"
    ~count:200
    (QCheck.make queue_ops)
    (fun rounds ->
      let q = Event_queue.create () in
      let adds = List.fold_left (fun n r -> n + List.length r) 0 rounds in
      let watch = Weak.create (max 1 adds) in
      let model = ref [] and seq = ref 0 and ran = ref (-1) in
      let pop_checked () =
        match (Event_queue.pop q, !model) with
        | None, [] -> true
        | Some (time, s, run), (mt, ms) :: rest ->
          model := rest;
          run ();
          time = mt && s = ms && !ran = s && Event_queue.size q = List.length rest
        | Some _, [] | None, _ :: _ -> false
      in
      let rec drain () = Event_queue.is_empty q || (pop_checked () && drain ()) in
      let round ops =
        List.for_all
          (function
            | Add t ->
              let time = float_of_int t in
              add_watched q ~time ~seq:!seq ~ran ~watch;
              model := List.merge compare !model [ (time, !seq) ];
              incr seq;
              true
            | Pop -> pop_checked ())
          ops
        && drain ()
        && !model = []
        &&
        (Gc.full_major ();
         Seq.for_all (fun i -> not (Weak.check watch i)) (Seq.init !seq Fun.id))
      in
      List.for_all round rounds)

let test_engine_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:5. (fun () -> log := ("b", Engine.now e) :: !log);
  Engine.schedule e ~delay:1. (fun () ->
      log := ("a", Engine.now e) :: !log;
      Engine.schedule e ~delay:1. (fun () -> log := ("a2", Engine.now e) :: !log));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "nested scheduling"
    [ ("a", 1.); ("a2", 2.); ("b", 5.) ]
    (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired)
  done;
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "events before cutoff" 5 !fired;
  Alcotest.(check (float 1e-9)) "clock advanced to cutoff" 5.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest of events" 10 !fired

let test_engine_max_events_per_run () =
  (* regression: [max_events] used to compare against the engine's
     cumulative executed count, so a second bounded run did nothing *)
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired)
  done;
  Engine.run ~max_events:3 e;
  Alcotest.(check int) "first bounded run" 3 !fired;
  Engine.run ~max_events:3 e;
  Alcotest.(check int) "second bounded run executes too" 6 !fired;
  Engine.run e;
  Alcotest.(check int) "drain the rest" 10 !fired;
  Alcotest.(check int) "cumulative count intact" 10 (Engine.events_executed e)

let test_queue_pop_into () =
  let q = Event_queue.create () in
  let s = Event_queue.slot () in
  Alcotest.(check bool) "empty queue" false (Event_queue.pop_into q s);
  let order = ref [] in
  Event_queue.add q ~time:2.0 ~seq:0 (fun () -> order := "b" :: !order);
  Event_queue.add q ~time:1.0 ~seq:1 (fun () -> order := "a" :: !order);
  let times = ref [] in
  while Event_queue.pop_into q s do
    times := s.Event_queue.s_time :: !times;
    s.Event_queue.s_run ()
  done;
  Alcotest.(check (list string)) "runs in time order" [ "a"; "b" ]
    (List.rev !order);
  Alcotest.(check (list (float 1e-9))) "slot carries times" [ 1.0; 2.0 ]
    (List.rev !times);
  (* a failed pop leaves the slot untouched *)
  Alcotest.(check bool) "drained" false (Event_queue.pop_into q s);
  Alcotest.(check (float 1e-9)) "slot untouched on empty" 2.0
    s.Event_queue.s_time

let test_engine_rejects_past () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.) ignore)

let test_station_fifo () =
  let e = Engine.create () in
  let st = Station.create e in
  let completions = ref [] in
  Station.submit st ~service:2. (fun () ->
      completions := ("a", Engine.now e) :: !completions);
  Station.submit st ~service:3. (fun () ->
      completions := ("b", Engine.now e) :: !completions);
  (* submitted later while the server is busy: queues behind *)
  Engine.schedule e ~delay:1. (fun () ->
      Station.submit st ~service:1. (fun () ->
          completions := ("c", Engine.now e) :: !completions));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "FIFO completion times"
    [ ("a", 2.); ("b", 5.); ("c", 6.) ]
    (List.rev !completions)

let test_station_idle_gap () =
  let e = Engine.create () in
  let st = Station.create e in
  let t = ref 0. in
  Station.submit st ~service:1. (fun () -> ());
  Engine.schedule e ~delay:10. (fun () ->
      Station.submit st ~service:1. (fun () -> t := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "idle server starts immediately" 11. !t

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" xs ys

let test_rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let test_rng_split_independent () =
  let r = Rng.create 7 in
  let r' = Rng.split r in
  let xs = List.init 50 (fun _ -> Rng.int r 1000000) in
  let ys = List.init 50 (fun _ -> Rng.int r' 1000000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Rng.shuffle (Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_tally () =
  let t = Stats.Tally.create () in
  List.iter (Stats.Tally.add t) [ 1.; 2.; 3.; 4. ];
  let s = Stats.Tally.summary t in
  Alcotest.(check int) "n" 4 s.n;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1. s.min;
  Alcotest.(check (float 1e-9)) "max" 4. s.max;
  Alcotest.(check (float 1e-9)) "total" 10. s.total;
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944487 s.stddev

let test_counters () =
  let c = Stats.Counters.create () in
  Stats.Counters.incr c "x";
  Stats.Counters.incr ~by:4 c "x";
  Stats.Counters.incr c "y";
  Alcotest.(check int) "x" 5 (Stats.Counters.get c "x");
  Alcotest.(check int) "y" 1 (Stats.Counters.get c "y");
  Alcotest.(check int) "absent" 0 (Stats.Counters.get c "z")

let test_linear_fit () =
  let s = Stats.Series.create "lat" in
  (* y = 2.7 + 0.48 x, the paper's ASVM Figure 11 model *)
  List.iter
    (fun x -> Stats.Series.add s ~x ~y:(2.7 +. (0.48 *. x)))
    [ 1.; 2.; 4.; 6.; 8. ];
  let intercept, slope = Stats.Series.linear_fit s in
  Alcotest.(check (float 1e-9)) "intercept" 2.7 intercept;
  Alcotest.(check (float 1e-9)) "slope" 0.48 slope

(* A static manager's pages are [page mod N = node] for N nodes: a key
   set with stride N.  Each such set, and a contiguous range, must
   spread over the buckets whatever the first key and the table's
   starting size. *)
let test_int_tbl_chains () =
  let longest ~init keys =
    let t = Int_tbl.create init in
    List.iter (fun k -> Int_tbl.replace t k ()) keys;
    (Int_tbl.stats t).Hashtbl.max_bucket_length
  in
  List.iter
    (fun init ->
      List.iter
        (fun stride ->
          List.iter
            (fun first ->
              let keys = List.init 100 (fun k -> first + (k * stride)) in
              Alcotest.(check bool)
                (Printf.sprintf "stride %d from %d, table %d: chain <= 4"
                   stride first init)
                true
                (longest ~init keys <= 4))
            [ 0; 1; stride / 2; stride - 1 ])
        [ 16; 64; 72; 256; 1024 ];
      List.iter
        (fun first ->
          let keys = List.init 4096 (fun k -> first + k) in
          Alcotest.(check bool)
            (Printf.sprintf "range from %d, table %d: chain <= 4" first init)
            true
            (longest ~init keys <= 4))
        [ 0; 1000 ])
    [ 8; 64; 1024 ]

(* [Int_tbl] and [Pair_tbl] copy [Hashtbl]'s chained table so that
   iteration order, and every simulated result that follows from it,
   stays that of [Hashtbl.Make] with the same hash.  Each is driven
   beside such a reference through random operation sequences that grow
   it through several doublings, empty it, copy it and add to it during
   a traversal, comparing every result, the length and the iteration
   order. *)
module Int_ref = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = (x + (x lsr 3) + (x lsr 7) + (x lsr 14)) land max_int
end)

module Pair_ref = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) (c, d) = a = c && b = d
  let hash = Hashtbl.hash
end)

(* mostly from a range the sequence revisits, sometimes anywhere *)
let random_key rs =
  match Random.State.int rs 10 with
  | 0 -> Random.State.bits rs - Random.State.bits rs
  | 1 -> List.nth [ 0; -1; max_int; min_int ] (Random.State.int rs 4)
  | _ -> Random.State.int rs 3000

(* [step rs n] applies the [n]-th random operation to the table and its
   reference and returns the two results, printed; every step compares
   the lengths and every 200th the iteration orders. *)
let drive ~name ~step ~lengths ~orders =
  for seed = 1 to 5 do
    let rs = Random.State.make [| seed |] in
    for n = 1 to 4000 do
      let here what =
        Printf.sprintf "%s seed %d step %d: %s" name seed n what
      in
      let expected, got = step rs n in
      Alcotest.(check string) (here "result") expected got;
      let expected, got = lengths () in
      Alcotest.(check int) (here "length") expected got;
      if n mod 200 = 0 then begin
        let expected, got = orders () in
        Alcotest.(check string) (here "iteration order") expected got
      end
    done
  done

let show_opt = function None -> "none" | Some v -> string_of_int v

let show_bindings show_key l =
  String.concat ";"
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" (show_key k) v) l)

(* the bindings as [iter] visits them, then as [fold] does *)
let listing show_key iter fold tbl =
  let l = ref [] in
  iter (fun k v -> l := (k, v) :: !l) tbl;
  let folded = fold (fun k v acc -> (k, v) :: acc) tbl [] in
  show_bindings show_key (List.rev !l)
  ^ " / "
  ^ show_bindings show_key (List.rev folded)

(* iterate, adding one of [fresh] at each binding visited; the visits *)
let visit_adding show_key iter add tbl fresh =
  let seen = ref [] and n = ref 0 in
  iter
    (fun k v ->
      if !n < Array.length fresh then add tbl fresh.(!n) !n;
      incr n;
      seen := (k, v) :: !seen)
    tbl;
  show_bindings show_key (List.rev !seen)

let test_int_tbl_matches_hashtbl () =
  let r = Int_ref.create 16 and t = Int_tbl.create 16 in
  let both f g = (f r, g t) in
  let step rs n =
    let k = random_key rs in
    let op = Random.State.int rs 1000 in
    if op < 400 then
      both
        (fun r -> Int_ref.replace r k n; "")
        (fun t -> Int_tbl.replace t k n; "")
    else if op < 550 then
      both (fun r -> Int_ref.add r k n; "") (fun t -> Int_tbl.add t k n; "")
    else if op < 650 then
      both (fun r -> Int_ref.remove r k; "") (fun t -> Int_tbl.remove t k; "")
    else if op < 800 then
      both
        (fun r -> show_opt (Int_ref.find_opt r k))
        (fun t -> show_opt (Int_tbl.find_opt t k))
    else if op < 850 then
      let find f tbl =
        match f tbl k with v -> string_of_int v | exception Not_found -> "none"
      in
      both (find Int_ref.find) (find Int_tbl.find)
    else if op < 995 then
      both
        (fun r -> string_of_bool (Int_ref.mem r k))
        (fun t -> string_of_bool (Int_tbl.mem t k))
    else if op < 997 then
      let fresh = Array.init 64 (fun _ -> random_key rs) in
      both
        (fun r -> visit_adding string_of_int Int_ref.iter Int_ref.add r fresh)
        (fun t -> visit_adding string_of_int Int_tbl.iter Int_tbl.add t fresh)
    else if op < 999 then
      both (fun r -> Int_ref.reset r; "") (fun t -> Int_tbl.reset t; "")
    else both (fun r -> Int_ref.clear r; "") (fun t -> Int_tbl.clear t; "")
  in
  drive ~name:"int_tbl" ~step
    ~lengths:(fun () -> both Int_ref.length Int_tbl.length)
    ~orders:(fun () ->
      both
        (listing string_of_int Int_ref.iter Int_ref.fold)
        (listing string_of_int Int_tbl.iter Int_tbl.fold))

let test_pair_tbl_matches_hashtbl () =
  let r = ref (Pair_ref.create 16) and t = ref (Pair_tbl.create 16) in
  let both f g = (f !r, g !t) in
  let show_pair (a, b) = Printf.sprintf "%d,%d" a b in
  (* [Pair_tbl] as a table over pairs, to share the listings *)
  let iter f t = Pair_tbl.iter (fun a b v -> f (a, b) v) t in
  let fold f t = Pair_tbl.fold (fun a b v acc -> f (a, b) v acc) t in
  let add t (a, b) v = Pair_tbl.add t a b v in
  let step rs n =
    let a = random_key rs and b = random_key rs in
    let op = Random.State.int rs 1000 in
    (* few second halves, so that pairs share a first half *)
    let b = if op mod 3 = 0 then b else b mod 8 in
    if op < 400 then
      both
        (fun r -> Pair_ref.replace r (a, b) n; "")
        (fun t -> Pair_tbl.replace t a b n; "")
    else if op < 550 then
      both
        (fun r -> Pair_ref.add r (a, b) n; "")
        (fun t -> Pair_tbl.add t a b n; "")
    else if op < 650 then
      both
        (fun r -> Pair_ref.remove r (a, b); "")
        (fun t -> Pair_tbl.remove t a b; "")
    else if op < 850 then
      both
        (fun r -> show_opt (Pair_ref.find_opt r (a, b)))
        (fun t -> show_opt (Pair_tbl.find_opt t a b))
    else if op < 995 then
      both
        (fun r -> string_of_bool (Pair_ref.mem r (a, b)))
        (fun t -> string_of_bool (Pair_tbl.mem t a b))
    else if op < 997 then
      let fresh =
        Array.init 64 (fun _ -> (random_key rs, random_key rs mod 8))
      in
      both
        (fun r -> visit_adding show_pair Pair_ref.iter Pair_ref.add r fresh)
        (fun t -> visit_adding show_pair iter add t fresh)
    else if op < 999 then begin
      r := Pair_ref.copy !r;
      t := Pair_tbl.copy !t;
      ("", "")
    end
    else
      both (fun r -> Pair_ref.reset r; "") (fun t -> Pair_tbl.reset t; "")
  in
  drive ~name:"pair_tbl" ~step
    ~lengths:(fun () -> both Pair_ref.length Pair_tbl.length)
    ~orders:(fun () ->
      both
        (listing show_pair Pair_ref.iter Pair_ref.fold)
        (listing show_pair iter fold))

let test_pair_tbl_hash () =
  let special =
    [ 0; 1; -1; 2; -2; 1 lsl 31; -(1 lsl 31); 1 lsl 32; max_int; min_int ]
  in
  let check a b =
    Alcotest.(check int)
      (Printf.sprintf "hash %d %d" a b)
      (Hashtbl.hash (a, b)) (Pair_tbl.hash a b)
  in
  List.iter (fun a -> List.iter (check a) special) special;
  let rs = Random.State.make [| 24 |] in
  for _ = 1 to 100_000 do
    check (random_key rs) (random_key rs)
  done

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "simcore"
    [
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_order;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "pop_into" `Quick test_queue_pop_into;
          qtest test_queue_heap_property;
          qtest test_queue_matches_model;
        ] );
      ( "engine",
        [
          Alcotest.test_case "schedule" `Quick test_engine_schedule;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "max_events per run" `Quick
            test_engine_max_events_per_run;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        ] );
      ( "station",
        [
          Alcotest.test_case "fifo queueing" `Quick test_station_fifo;
          Alcotest.test_case "idle gap" `Quick test_station_idle_gap;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          qtest test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          qtest test_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "tally" `Quick test_tally;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
        ] );
      ( "int_tbl",
        [
          Alcotest.test_case "stride and range keys spread over buckets"
            `Quick test_int_tbl_chains;
          Alcotest.test_case "matches Hashtbl.Make, order included" `Quick
            test_int_tbl_matches_hashtbl;
        ] );
      ( "pair_tbl",
        [
          Alcotest.test_case "hash is Hashtbl.hash of the pair" `Quick
            test_pair_tbl_hash;
          Alcotest.test_case "matches Hashtbl.Make, order included" `Quick
            test_pair_tbl_matches_hashtbl;
        ] );
    ]
