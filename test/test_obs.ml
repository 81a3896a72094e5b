(* Observability layer: metric registry and structured traces.

   Unit tests cover the registry semantics (label normalization,
   percentiles, counter diffs, JSON round-trips); the integration tests
   assert the paper's central message-economy claim from the registry
   counters: a remote write-ownership transfer costs 3 messages (1
   carrying page contents) under ASVM and 5 (2 with contents) under
   the XMM baseline (paper section 3.3 / Table 1). *)

module Json = Asvm_obs.Json
module Metrics = Asvm_obs.Metrics
module Trace = Asvm_obs.Trace
module Cluster = Asvm_cluster.Cluster
module Config = Asvm_cluster.Config
module Prot = Asvm_machvm.Prot
module Address_map = Asvm_machvm.Address_map

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.String "with \"quotes\" and \n newline";
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> Alcotest.(check string) "roundtrip" (Json.to_string j) (Json.to_string j')
      | Error e -> Alcotest.failf "parse error: %s" e)
    samples;
  (match Json.of_string "{\"a\": 1} trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ());
  match Json.of_string "{\"u\": \"\\u0041\"}" with
  | Ok j -> (
    match Json.member "u" j with
    | Some (Json.String s) -> Alcotest.(check string) "unicode escape" "A" s
    | _ -> Alcotest.fail "missing member")
  | Error e -> Alcotest.failf "parse error: %s" e

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let test_label_merging () =
  let r = Metrics.Registry.create () in
  let c1 =
    Metrics.Registry.counter r "m" ~labels:[ ("a", "1"); ("b", "2") ]
  in
  let c2 =
    Metrics.Registry.counter r "m" ~labels:[ ("b", "2"); ("a", "1") ]
  in
  Metrics.Counter.incr c1;
  Metrics.Counter.incr c2;
  (* label order is irrelevant: both handles hit the same series *)
  Alcotest.(check int) "same series" 2 (Metrics.Counter.value c1);
  (* duplicate keys: the last binding wins *)
  let c3 =
    Metrics.Registry.counter r "m" ~labels:[ ("a", "0"); ("a", "1"); ("b", "2") ]
  in
  Metrics.Counter.incr c3;
  Alcotest.(check int) "dup key last wins" 3 (Metrics.Counter.value c1);
  let snap = Metrics.Registry.snapshot r in
  Alcotest.(check int) "one series" 1 (List.length snap);
  (* a name reused with a different metric type is an error *)
  match Metrics.Registry.gauge r "m" ~labels:[ ("a", "1"); ("b", "2") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type clash accepted"

let test_percentiles () =
  let r = Metrics.Registry.create () in
  let h = Metrics.Registry.histogram r "h_ms" in
  (* 1..100 shuffled: exact order statistics are known *)
  List.iter
    (fun i -> Metrics.Histogram.observe h (float_of_int (((i * 37) mod 100) + 1)))
    (List.init 100 Fun.id);
  let close = Alcotest.(check (float 1e-9)) in
  close "p0" 1. (Metrics.Histogram.percentile h 0.);
  close "p100" 100. (Metrics.Histogram.percentile h 100.);
  close "p50" 50.5 (Metrics.Histogram.percentile h 50.);
  (* rank 0.9 * 99 = 89.1 -> between the 90th and 91st order stats *)
  close "p90" 90.1 (Metrics.Histogram.percentile h 90.);
  close "mean" 50.5 (Metrics.Histogram.mean h);
  Alcotest.(check int) "count" 100 (Metrics.Histogram.count h)

let test_diff () =
  let r = Metrics.Registry.create () in
  let c = Metrics.Registry.counter r "c" in
  let g = Metrics.Registry.gauge r "g" in
  Metrics.Counter.incr c ~by:5;
  Metrics.Gauge.set g 1.;
  let before = Metrics.Registry.snapshot r in
  Metrics.Counter.incr c ~by:3;
  Metrics.Gauge.set g 9.;
  let c2 = Metrics.Registry.counter r "c2" in
  Metrics.Counter.incr c2 ~by:7;
  let after = Metrics.Registry.snapshot r in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check int) "delta existing" 3 (Metrics.counter_total d "c");
  Alcotest.(check int) "delta new series" 7 (Metrics.counter_total d "c2");
  (* gauges are point-in-time: never in a diff *)
  Alcotest.(check bool) "no gauges" true
    (List.for_all
       (fun (s : Metrics.sample) -> s.Metrics.name <> "g")
       d)

let test_sample_json_roundtrip () =
  let r = Metrics.Registry.create () in
  Metrics.Counter.incr
    (Metrics.Registry.counter r "c" ~labels:[ ("k", "v") ])
    ~by:11;
  Metrics.Gauge.set (Metrics.Registry.gauge r "g") 2.25;
  let h = Metrics.Registry.histogram r "h_ms" in
  List.iter (fun i -> Metrics.Histogram.observe h (float_of_int i)) [ 1; 2; 3 ];
  let snap = Metrics.Registry.snapshot r in
  let lines =
    String.split_on_char '\n' (String.trim (Metrics.snapshot_to_jsonl snap))
  in
  Alcotest.(check int) "one line per series" (List.length snap)
    (List.length lines);
  List.iter2
    (fun line (s : Metrics.sample) ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "bad JSONL line: %s" e
      | Ok j -> (
        match Metrics.sample_of_json j with
        | Error e -> Alcotest.failf "sample_of_json: %s" e
        | Ok s' ->
          Alcotest.(check string) "name" s.Metrics.name s'.Metrics.name;
          (* floats go through %.12g text: compare with tolerance *)
          let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a) in
          let ok =
            match (s.Metrics.value, s'.Metrics.value) with
            | Metrics.Counter_v a, Metrics.Counter_v b -> a = b
            | Metrics.Gauge_v a, Metrics.Gauge_v b -> close a b
            | Metrics.Histogram_v a, Metrics.Histogram_v b ->
              a.count = b.count && close a.mean b.mean
              && close a.p50 b.p50 && close a.p90 b.p90
              && close a.p99 b.p99 && close a.min b.min
              && close a.max b.max
            | _ -> false
          in
          Alcotest.(check bool) "value" true ok))
    lines snap

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_ring_and_jsonl () =
  let path = Filename.temp_file "asvm_trace" ".jsonl" in
  let oc = open_out path in
  let tr = Trace.create ~capacity:4 () in
  Trace.set_jsonl tr (Some oc);
  let event i =
    {
      Trace.time = float_of_int i;
      node = i mod 3;
      kind =
        (match i mod 3 with
        | 0 ->
          Trace.Msg
            {
              Trace.proto = "asvm";
              cls = "request";
              group = "transfer";
              obj = 2;
              page = i;
              src = i mod 3;
              dst = (i + 1) mod 3;
              carries_page = i mod 2 = 0;
              bytes = 32;
            }
        | 1 -> Trace.Ownership { obj = 1; page = i; owner = i mod 3 }
        | _ -> Trace.Note { category = "asvm.park"; detail = string_of_int i });
    }
  in
  for i = 0 to 9 do
    let e = event i in
    Trace.emit tr ~time:e.Trace.time ~node:e.node e.kind
  done;
  (* an absent trace formats nothing and records nothing *)
  Trace.note None ~time:0. ~node:0 ~category:"x" "noop %d" 1;
  close_out oc;
  (* the ring keeps only the last [capacity] events *)
  Alcotest.(check int) "emitted" 10 (Trace.emitted tr);
  let retained = Trace.events tr in
  Alcotest.(check int) "ring bounded" 4 (List.length retained);
  Alcotest.(check (float 0.) ) "oldest first" 6. (List.hd retained).Trace.time;
  (* the JSONL sink saw every event; each line round-trips *)
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "all events on disk" 10 (List.length lines);
  List.iteri
    (fun i line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "line %d: %s" i e
      | Ok j -> (
        match Trace.event_of_json j with
        | Error e -> Alcotest.failf "line %d: %s" i e
        | Ok e ->
          (* every field, the message's object, page and contents flag
             included, survives the round trip *)
          Alcotest.(check bool)
            (Printf.sprintf "line %d round-trips" i)
            true
            (e = event i)))
    lines;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Integration: the paper's message-economy claim from the registry    *)
(* ------------------------------------------------------------------ *)

let transfer_msgs snapshot name =
  let total = Metrics.counter_total snapshot name in
  let wire =
    Metrics.counter_total
      ~where:(fun ls -> List.assoc_opt "contents" ls = Some "wire")
      snapshot name
  in
  (total, wire)

(* Steady-state ASVM ownership transfer: ping-pong writes leave the
   loser with a dynamic hint pointing straight at the owner, so the
   third write is the canonical 3-message transfer of section 3.3. *)
let test_asvm_three_messages () =
  let nodes = 6 in
  let cl = Cluster.create (Config.default ~nodes) in
  let obj =
    Cluster.create_shared_object cl ~size_pages:1
      ~sharers:(List.init nodes Fun.id) ()
  in
  let task node =
    let t = Cluster.create_task cl ~node in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:1
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t2 = task 2 and t3 = task 3 in
  let wr t v =
    let ok = ref false in
    Cluster.write_word cl ~task:t ~addr:0 ~value:v (fun () -> ok := true);
    Cluster.run cl;
    assert !ok
  in
  wr t2 1;
  wr t3 2;
  (* the measured transfer: node 2 takes ownership back from node 3 *)
  let before = Cluster.metrics_snapshot cl in
  wr t2 3;
  let d = Metrics.diff ~before ~after:(Cluster.metrics_snapshot cl) in
  let total, wire = transfer_msgs d "asvm.msgs.ownership_transfer" in
  Alcotest.(check int) "3 messages" 3 total;
  Alcotest.(check int) "1 with contents" 1 wire

(* The XMM dirty-page transfer: request, lock (clean), lock_done with
   the page, the memory_object_data_write to the pager, and the supply
   — 5 messages, 2 of them carrying the page across the wire. *)
let test_xmm_five_messages () =
  let nodes = 4 in
  let cl =
    Cluster.create (Config.with_mm (Config.default ~nodes) Config.Mm_xmm)
  in
  let obj =
    Cluster.create_shared_object cl ~size_pages:1
      ~sharers:(List.init nodes Fun.id) ()
  in
  let task node =
    let t = Cluster.create_task cl ~node in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:1
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t1 = task 1 and t3 = task 3 in
  let wr t v =
    let ok = ref false in
    Cluster.write_word cl ~task:t ~addr:0 ~value:v (fun () -> ok := true);
    Cluster.run cl;
    assert !ok
  in
  (* node 1 dirties the page; node 3's write is the measured transfer *)
  wr t1 1;
  let before = Cluster.metrics_snapshot cl in
  wr t3 2;
  let d = Metrics.diff ~before ~after:(Cluster.metrics_snapshot cl) in
  let total, wire = transfer_msgs d "xmm.msgs.ownership_transfer" in
  Alcotest.(check int) "5 messages" 5 total;
  Alcotest.(check int) "2 with contents" 2 wire

(* The --trace-out / --metrics path end to end: the JSONL file is valid
   and the fault-window counters carry the claim. *)
let test_fault_instrumented () =
  let module Fault_micro = Asvm_workloads.Fault_micro in
  let path = Filename.temp_file "asvm_fault" ".jsonl" in
  let r =
    Fault_micro.measure_instrumented ~nodes:8 ~trace_out:path
      ~mm:Config.Mm_asvm
      (Fault_micro.Write_upgrade { read_copies = 3 })
  in
  Alcotest.(check bool) "positive latency" true (r.Fault_micro.latency_ms > 0.);
  let total, _ =
    transfer_msgs r.Fault_micro.fault_metrics "asvm.msgs.ownership_transfer"
  in
  Alcotest.(check int) "upgrade is 3 messages" 3 total;
  (* engine profiling gauges ride along in the full snapshot *)
  (match Metrics.find r.Fault_micro.run_metrics "engine.events" [] with
  | Some (Metrics.Gauge_v v) ->
    Alcotest.(check bool) "events counted" true (v > 0.)
  | _ -> Alcotest.fail "engine.events gauge missing");
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr n;
       match Json.of_string line with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "invalid JSONL at line %d: %s" !n e
     done
   with End_of_file -> close_in ic);
  Alcotest.(check bool) "trace nonempty" true (!n > 0);
  Sys.remove path

(* Section 3.3 read from the trace rather than the registry: among the
   measured upgrade's transfer-group messages, those about the page
   whose ownership it moved are exactly the request, the reply
   carrying the page, and the owner_update to the static manager. *)
let test_fault_trace_three_messages () =
  let module Fault_micro = Asvm_workloads.Fault_micro in
  let trace = ref None and start = ref 0 in
  let on_start cl =
    let tr = Option.get (Cluster.trace cl) in
    trace := Some tr;
    start := Trace.emitted tr
  in
  ignore
    (Fault_micro.measure_instrumented ~nodes:8
       ~tweak:(fun c -> { c with Config.trace_capacity = Some 4096 })
       ~on_start ~mm:Config.Mm_asvm
       (Fault_micro.Write_upgrade { read_copies = 2 }));
  let tr = Option.get !trace in
  let fault_events =
    let all = Trace.events tr in
    let skip = List.length all - (Trace.emitted tr - !start) in
    List.filteri (fun i _ -> i >= skip) all
  in
  let obj, page =
    match
      List.filter_map
        (fun (e : Trace.event) ->
          match e.kind with
          | Trace.Ownership { obj; page; _ } -> Some (obj, page)
          | _ -> None)
        fault_events
    with
    | [ moved ] -> moved
    | l -> Alcotest.failf "expected one ownership change, got %d" (List.length l)
  in
  let transfer =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.kind with
        | Trace.Msg m when m.group = "transfer" && m.obj = obj && m.page = page
          ->
          Some (m.cls, m.carries_page)
        | _ -> None)
      fault_events
  in
  Alcotest.(check (list (pair string bool)))
    "request, reply with contents, owner_update"
    [ ("request", false); ("reply", true); ("owner_update", false) ]
    transfer

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip ] );
      ( "registry",
        [
          Alcotest.test_case "label merging" `Quick test_label_merging;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "diff" `Quick test_diff;
          Alcotest.test_case "jsonl roundtrip" `Quick test_sample_json_roundtrip;
        ] );
      ( "trace",
        [ Alcotest.test_case "ring and jsonl" `Quick test_trace_ring_and_jsonl ] );
      ( "message economy",
        [
          Alcotest.test_case "asvm 3 messages" `Quick test_asvm_three_messages;
          Alcotest.test_case "xmm 5 messages" `Quick test_xmm_five_messages;
          Alcotest.test_case "instrumented fault" `Quick test_fault_instrumented;
          Alcotest.test_case "asvm 3 messages in the trace" `Quick
            test_fault_trace_three_messages;
        ] );
    ]
