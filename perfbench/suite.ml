(* The three workloads.  Each drives the library through the public
   [tweak] / [on_start] / [inspect] hooks of its workload entry point and
   times the gaps between those calls:

     entry --> tweak --> (first message) --> on_start --> inspect
       input     cluster.create   warm-up      engine.run

   [setup_s] is entry to [on_start]; [host_s] is [on_start] to
   [inspect], with the counter reads at both ends kept outside it. *)

module Cluster = Asvm_cluster.Cluster
module Config = Asvm_cluster.Config
module Metrics = Asvm_obs.Metrics
module Asvm = Asvm_core.Asvm
module Invariants = Asvm_chaos.Invariants
module Serve = Asvm_serve.Serve
module Arrival = Asvm_serve.Arrival
module Em3d = Asvm_workloads.Em3d
module Fault_micro = Asvm_workloads.Fault_micro
module Copy_chain = Asvm_workloads.Copy_chain
module File_io = Asvm_workloads.File_io
module Network = Asvm_mesh.Network

type size = Full | Tiny

type metric = {
  name : string;
  unit_ : string;
  value : float;
  host : bool;  (** a host measurement (noisy) rather than a simulated one *)
}

type rep = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** must all pass *)
  metrics : metric list;
}

let workloads = [ "serve-asvm-64"; "em3d-32"; "paper-cells" ]

(* Requests completed within this many simulated ms meet the SLO: 5x the
   uncongested 4-node p99 of about 10 ms. *)
let slo_ms = 50.

(* ------------------------------------------------------------------ *)
(* Per-rep accounting                                                 *)
(* ------------------------------------------------------------------ *)

type acc = {
  traced : bool;
  window : Probe.window;
  mutable setup_s : float;
  mutable host_s : float;
  mutable input_s : float;  (** entry to tweak *)
  mutable create_s : float;  (** tweak to the first message *)
  mutable warmup_s : float;  (** first message to on_start *)
  mutable check_s : float;
  mutable snapshot_s : float;
  mutable builds : int;
  mutable pending_at_start : float;
  mutable violations : int;
  mutable asvm_violations : int;
  mutable attempted : int;
  mutable failed : int;
  mutable checks : (string * bool) list;
}

let acc ~traced =
  {
    traced;
    window = Probe.window ();
    setup_s = 0.;
    host_s = 0.;
    input_s = 0.;
    create_s = 0.;
    warmup_s = 0.;
    check_s = 0.;
    snapshot_s = 0.;
    builds = 0;
    pending_at_start = 0.;
    violations = 0;
    asvm_violations = 0;
    attempted = 0;
    failed = 0;
    checks = [];
  }

let check a name ok = a.checks <- (name, ok) :: a.checks

type hooks = {
  tweak : Config.t -> Config.t;
  on_start : Cluster.t -> unit;
  inspect : Cluster.t -> unit;
  audit : Asvm.t -> unit;
      (** for a workload that audits the protocol between its event loop
          and [inspect]: stops the [host_s] clock there *)
}

(* The GC's counters.  They are read after the counter snapshot at
   [on_start] and before it at [inspect], so that the snapshot's own
   allocation stays outside the measured window. *)
let gc_counts () =
  let gc = Gc.quick_stat () in
  [
    ("gc.minor_words", Gc.minor_words ());
    ("gc.promoted_words", gc.Gc.promoted_words);
    ("gc.major_collections", float_of_int gc.Gc.major_collections);
  ]

let add_counts (r : Probe.reading) = List.iter (fun (k, v) -> Hashtbl.replace r.counts k v)

(* Run one library call that builds a single cluster, with hooks that
   time its phases, read the layer counters around the measured phase and
   audit the drained cluster.  Returns the call's result; the timings,
   counter deltas and audit findings go into [a]. *)
let instrument a ?(parent = -1) ?(input_span = "workload.input") f =
  let t_call = Probe.now () in
  let t_tweak = ref nan and t_first = ref nan and t_run = ref nan in
  let t_done = ref nan and before = ref None in
  let root = Probe.open_span ~parent "cell" t_call in
  let tweak (config : Config.t) =
    t_tweak := Probe.now ();
    a.builds <- a.builds + 1;
    Probe.span ~parent:root input_span t_call !t_tweak;
    if not a.traced then config
    else
      (* a pass-through interposer marks the first message the new
         cluster sends: the end of its construction *)
      let inner = config.Config.net_interposer in
      let mark ~now ~index ~src ~dst ~bytes =
        if index = 0 then t_first := Probe.now ();
        match inner with
        | None -> Network.pass
        | Some f -> f ~now ~index ~src ~dst ~bytes
      in
      { config with Config.net_interposer = Some mark }
  in
  let on_start cl =
    let t_start = Probe.now () in
    let first = if Float.is_nan !t_first then t_start else !t_first in
    a.setup_s <- a.setup_s +. (t_start -. t_call);
    a.input_s <- a.input_s +. (!t_tweak -. t_call);
    a.create_s <- a.create_s +. (first -. !t_tweak);
    a.warmup_s <- a.warmup_s +. (t_start -. first);
    let build = Probe.open_span ~parent:root "cluster.build" !t_tweak in
    Probe.span ~parent:build "cluster.create" !t_tweak first;
    Probe.span ~parent:build "workload.warmup" first t_start;
    Probe.close_span build t_start;
    let r = Probe.read ~full:a.traced cl in
    a.pending_at_start <- a.pending_at_start +. Probe.get r "engine.pending";
    if a.traced then add_counts r (gc_counts ());
    before := Some r;
    t_run := Probe.now ();
    a.snapshot_s <- a.snapshot_s +. (!t_run -. t_start);
    Probe.span ~parent:root "obs.snapshot" t_start !t_run
  in
  let audited = ref false in
  let audit m =
    t_done := Probe.now ();
    audited := true;
    a.asvm_violations <- a.asvm_violations + List.length (Asvm.check_invariants m);
    let t = Probe.now () in
    a.check_s <- a.check_s +. (t -. !t_done);
    Probe.span ~parent:root "chaos.check" !t_done t
  in
  let inspect cl =
    if not !audited then t_done := Probe.now ();
    let gc = if a.traced then gc_counts () else [] in
    let after = Probe.read ~full:a.traced cl in
    add_counts after gc;
    let t_read = Probe.now () in
    a.host_s <- a.host_s +. (!t_done -. !t_run);
    Probe.span ~parent:root "engine.run" !t_run !t_done;
    Probe.span ~parent:root "obs.snapshot" !t_done t_read;
    a.snapshot_s <- a.snapshot_s +. (t_read -. !t_done);
    Option.iter (fun before -> Probe.accumulate a.window ~before ~after) !before;
    let found = Invariants.check cl in
    a.violations <- a.violations + List.length found;
    (match Cluster.backend cl with
    | `Asvm m when not !audited ->
      a.asvm_violations <- a.asvm_violations + List.length (Asvm.check_invariants m)
    | _ -> ());
    let t_checked = Probe.now () in
    a.check_s <- a.check_s +. (t_checked -. t_read);
    Probe.span ~parent:root "chaos.check" t_read t_checked;
    Probe.close_span root t_checked
  in
  f { tweak; on_start; inspect; audit }

(* ------------------------------------------------------------------ *)
(* Metric assembly                                                    *)
(* ------------------------------------------------------------------ *)

let sim name unit_ value = { name; unit_; value; host = false }
let host name unit_ value = { name; unit_; value; host = true }
let ratio a b = if b = 0. then 0. else a /. b
let pct a b = 100. *. ratio a b

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6

(* The end-to-end metrics every workload reports. *)
let common a =
  let w = a.window in
  let faults = Probe.total w "vm.faults" in
  [
    host "host_s" "s" a.host_s;
    host "setup_s" "s" a.setup_s;
    sim "msgs_per_fault" "msgs/fault" (ratio (Probe.total w "proto.msgs") faults);
    sim "ok_pct" "%"
      (pct (float_of_int (a.attempted - a.failed)) (float_of_int a.attempted));
    sim "violations" "count" (float_of_int a.violations);
  ]

(* Every per-layer metric, for every workload; a layer that does no work
   on a workload reports 0.  [extra] holds the workload's own layer
   values: the serve, paper and em3d families. *)
let per_layer a extra =
  let w = a.window in
  let t = Probe.total w in
  let ops = float_of_int a.attempted in
  let events = t "engine.events" in
  let faults = t "vm.faults" in
  let asvm_faults = t "faults.asvm" and xmm_faults = t "faults.xmm" in
  let fwd name = t ("asvm.forward." ^ name) in
  let decisions =
    fwd "dynamic" +. fwd "to_static" +. fwd "static_hit" +. fwd "fresh_hint"
    +. fwd "paged_hint" +. fwd "global_sweeps"
  in
  let p family q = Probe.window_percentile w family q in
  let from name = Option.value ~default:0. (List.assoc_opt name extra) in
  let count name = sim name "count" in
  [
    count "engine.events" events;
    sim "engine.events_per_op" "events/op" (ratio events ops);
    host "engine.ns_per_event" "ns" (ratio (a.host_s *. 1e9) events);
    count "engine.pending_at_start" a.pending_at_start;
    sim "gc.minor_words_per_event" "words/event" (ratio (t "gc.minor_words") events);
    sim "gc.promoted_words_per_event" "words/event"
      (ratio (t "gc.promoted_words") events);
    count "gc.major_collections" (t "gc.major_collections");
    count "cluster.builds" (float_of_int a.builds);
    host "cluster.create_s" "s" a.create_s;
    host "serve.schedule_s" "s" (from "serve.schedule_s");
    host "serve.warmup_s" "s" (from "serve.warmup_s");
    count "serve.requests" (from "serve.requests");
    count "serve.stranded" (from "serve.stranded");
    count "serve.inflight_peak" (from "serve.inflight_peak");
    count "serve.backlog_growth" (from "serve.backlog_growth");
    sim "net.msgs_per_op" "msgs/op" (ratio (t "net.messages") ops);
    sim "net.bytes_per_op" "B/op" (ratio (t "net.bytes") ops);
    sim "net.tx_backlog_ms.p50" "ms" (p "net.tx_backlog_ms" 50.);
    sim "net.tx_backlog_ms.p99" "ms" (p "net.tx_backlog_ms" 99.);
    sim "sts.header_msgs_per_fault" "msgs/fault" (ratio (t "sts.header_msgs") asvm_faults);
    sim "sts.page_msgs_per_fault" "msgs/fault" (ratio (t "sts.page_msgs") asvm_faults);
    count "sts.retransmits" (t "sts.retransmits");
    sim "norma.msgs_per_fault" "msgs/fault" (ratio (t "norma.msgs") xmm_faults);
    count "asvm.forward.dynamic" (fwd "dynamic");
    count "asvm.forward.to_static" (fwd "to_static");
    count "asvm.forward.static_hit" (fwd "static_hit");
    count "asvm.forward.paged_hint" (fwd "paged_hint");
    count "asvm.forward.global_sweeps" (fwd "global_sweeps");
    count "asvm.forward.park_timeouts" (fwd "park_timeouts");
    count "asvm.forward.loop_breaks" (fwd "loop_breaks");
    sim "asvm.sweep_pct" "%" (pct (fwd "global_sweeps") decisions);
    sim "asvm.hint_hit_pct" "%"
      (pct
         (fwd "dynamic" +. fwd "static_hit" +. fwd "fresh_hint" +. fwd "paged_hint")
         decisions);
    sim "asvm.request_msgs_per_fault" "msgs/fault" (ratio (t "asvm.request_msgs") asvm_faults);
    count "asvm.invariant_violations" (float_of_int a.asvm_violations);
    sim "asvm.fault_ms.p50" "ms" (p "asvm.fault_ms" 50.);
    sim "asvm.fault_ms.p99" "ms" (p "asvm.fault_ms" 99.);
    count "asvm.ownership_transfers" (t "asvm.ownership_transfers");
    count "asvm.pageout.reader_handoffs" (t "asvm.pageout.reader_handoffs");
    count "asvm.pageout.internode" (t "asvm.pageout.internode");
    count "asvm.pageout.to_pager" (t "asvm.pageout.to_pager");
    count "asvm.copy.pulls" (t "asvm.copy.pulls");
    count "asvm.copy.push_scans" (t "asvm.push_scans");
    count "asvm.copy.retries" (t "asvm.copy.retries");
    sim "xmm.fault_ms.p50" "ms" (p "xmm.fault_ms" 50.);
    sim "xmm.fault_ms.p99" "ms" (p "xmm.fault_ms" 99.);
    count "vm.faults" faults;
    count "vm.evictions" (t "vm.evictions");
    count "vm.pageout_evictions" (t "vm.pageout_evictions");
    count "vm.sync_evictions" (t "vm.evictions" -. t "vm.pageout_evictions");
    sim "contents.cow_pct" "%"
      (pct (t "contents.cow_materializations") (t "contents.snapshots"));
    count "pager.supplies" (t "pager.supplies");
    count "pager.stores" (t "pager.stores");
    count "disk.reads" (t "disk.reads");
    count "disk.writes" (t "disk.writes");
    sim "paper.table1_err_pct" "%" (from "paper.table1_err_pct");
    sim "paper.table2_err_pct" "%" (from "paper.table2_err_pct");
    sim "paper.fig11_err_pct" "%" (from "paper.fig11_err_pct");
    host "paper.table1_s" "s" (from "paper.table1_s");
    host "paper.table2_s" "s" (from "paper.table2_s");
    host "paper.fig11_s" "s" (from "paper.fig11_s");
    sim "em3d.faults_per_iter" "faults/iter" (from "em3d.faults_per_iter");
    host "chaos.check_s" "s" a.check_s;
    host "obs.snapshot_s" "s" a.snapshot_s;
  ]

let finish a ~specific ~extra =
  let metrics =
    common a @ specific @ [ sim "heap_peak_mb" "MB" (heap_peak_mb ()) ]
    @ if a.traced then per_layer a extra else []
  in
  { attempted = a.attempted; failed = a.failed; checks = List.rev a.checks; metrics }

(* ------------------------------------------------------------------ *)
(* serve-asvm-64: open loop, the forwarding-collapse regime            *)
(* ------------------------------------------------------------------ *)

let serve_params size seed =
  let p = Serve.default_params in
  match size with
  | Full ->
    {
      p with
      Serve.nodes = 64;
      memory_pages = 64;
      duration_ms = 200.;
      process = Arrival.Poisson { rate_per_s = 16_000. };
      seed;
    }
  | Tiny ->
    {
      p with
      Serve.nodes = 4;
      memory_pages = 16;
      duration_ms = 100.;
      process = Arrival.Poisson { rate_per_s = 1_000. };
      seed;
    }

let serve ~traced ~size ~seed =
  let a = acc ~traced in
  let params = serve_params size seed in
  let r =
    instrument a ~input_span:"serve.schedule" (fun h ->
        Serve.run ~mm:Config.Mm_asvm ~tweak:h.tweak ~on_start:h.on_start
          ~inspect:h.inspect params)
  in
  a.attempted <- r.Serve.requests;
  a.failed <- r.requests - r.completions;
  check a "serve: merged shard histograms equal the registry's"
    (r.merged_count = r.registry_count);
  let met = Array.fold_left (fun n l -> if l <= slo_ms then n + 1 else n) 0 r.latency_values in
  let depth = List.map (fun (_, d) -> float_of_int d) r.queue_depth in
  let first = match depth with d :: _ -> d | [] -> 0. in
  let last = List.fold_left (fun _ d -> d) first depth in
  let specific =
    [
      sim "p50_ms" "ms" r.p50_ms;
      sim "p99_ms" "ms" r.p99_ms;
      sim "slo_met_pct" "%" (pct (float_of_int met) (float_of_int r.requests));
    ]
  in
  finish a ~specific
    ~extra:
      [
        ("serve.schedule_s", a.input_s);
        ("serve.warmup_s", a.warmup_s);
        ("serve.requests", float_of_int r.requests);
        ("serve.stranded", float_of_int (r.requests - r.completions));
        ("serve.inflight_peak", List.fold_left Float.max 0. depth);
        ("serve.backlog_growth", last -. first);
      ]

(* ------------------------------------------------------------------ *)
(* em3d-32: closed loop SPMD application (Table 3)                    *)
(* ------------------------------------------------------------------ *)

let em3d_params size seed =
  match size with
  | Full -> { Em3d.cells = 64_000; nodes = 32; iterations = 20; seed }
  | Tiny -> { Em3d.cells = 2_000; nodes = 4; iterations = 2; seed }

let em3d ~traced ~size ~seed =
  let a = acc ~traced in
  let params = em3d_params size seed in
  a.attempted <- params.nodes * params.iterations;
  let result =
    match
      instrument a (fun h ->
          Em3d.run ~mm:Config.Mm_asvm ~audit:h.audit ~tweak:h.tweak
            ~on_start:h.on_start ~inspect:h.inspect params)
    with
    | r -> Some r
    | exception Failure _ -> None
  in
  check a "em3d: every task finished" (result <> None);
  check a "em3d: word-level run matches the sequential reference"
    (Em3d.validate ~mm:Config.Mm_asvm ~cells:96 ~nodes:4 ~iterations:3 ~seed);
  let sim_s, faults_per_iter =
    match result with
    | None ->
      a.failed <- a.attempted;
      (0., 0.)
    | Some r ->
      ( r.Em3d.seconds *. 100. /. float_of_int params.iterations,
        ratio (Probe.total a.window "vm.faults") (float_of_int params.iterations) )
  in
  let specific =
    [
      sim "sim_s" "s" sim_s;
      sim "paper_err_pct" "%"
        (Published.err_pct [ (sim_s, Published.em3d_64k_32_asvm_s) ]);
    ]
  in
  finish a ~specific ~extra:[ ("em3d.faults_per_iter", faults_per_iter) ]

(* ------------------------------------------------------------------ *)
(* paper-cells: Table 1, Figure 11 and Table 2, 58 short clusters     *)
(* ------------------------------------------------------------------ *)

let mms = [ Config.Mm_asvm; Config.Mm_xmm ]

(* Run [cell] as one operation; [None] if it raised. *)
let attempt a ~family cell =
  a.attempted <- a.attempted + 1;
  match instrument a ~parent:family cell with
  | r -> Some r
  | exception (Failure _ | Assert_failure _ | Invalid_argument _) ->
    a.failed <- a.failed + 1;
    None

(* Table 1, with paper section 3.3's message economy asserted from the
   measured fault's counters: an ASVM write upgrade is 3 messages, 1 with
   contents; an XMM write fault on a dirty page is 5, 2 with contents. *)
let table1 a ~size ~family =
  let nodes, kinds =
    let all =
      Fault_micro.
        [
          Write_fault { read_copies = 1 };
          Write_fault { read_copies = 2 };
          Write_fault { read_copies = 64 };
          Write_upgrade { read_copies = 2 };
          Write_upgrade { read_copies = 64 };
          Read_fault { nth_reader = 1 };
          Read_fault { nth_reader = 2 };
        ]
    in
    match size with
    | Full -> (72, List.combine all Published.table1)
    | Tiny ->
      ( 8,
        List.filter
          (fun (k, _) ->
            match k with
            | Fault_micro.Write_fault { read_copies = n }
            | Fault_micro.Write_upgrade { read_copies = n } ->
              n < 64
            | Fault_micro.Read_fault _ -> true)
          (List.combine all Published.table1) )
  in
  List.concat_map
    (fun (kind, (paper_asvm, paper_xmm)) ->
      List.filter_map
        (fun mm ->
          attempt a ~family (fun h ->
              Fault_micro.measure_instrumented ~nodes ~tweak:h.tweak
                ~on_start:h.on_start ~inspect:h.inspect ~mm kind)
          |> Option.map (fun (r : Fault_micro.instrumented) ->
                 let family_name, paper =
                   match mm with
                   | Config.Mm_asvm -> ("asvm.msgs.ownership_transfer", paper_asvm)
                   | Config.Mm_xmm -> ("xmm.msgs.ownership_transfer", paper_xmm)
                 in
                 let wire ls = List.assoc_opt "contents" ls = Some "wire" in
                 let msgs = Metrics.counter_total r.fault_metrics family_name in
                 let on_wire = Metrics.counter_total ~where:wire r.fault_metrics family_name in
                 (match (mm, kind) with
                 | Config.Mm_asvm, Fault_micro.Write_upgrade { read_copies = 2 } ->
                   let ok = msgs = 3 && on_wire = 1 in
                   check a "table1: ASVM write upgrade is 3 messages, 1 with contents" ok;
                   if not ok then a.failed <- a.failed + 1
                 | Config.Mm_xmm, Fault_micro.Write_fault { read_copies = 1 } ->
                   let ok = msgs = 5 && on_wire = 2 in
                   check a "table1: XMM dirty write fault is 5 messages, 2 with contents" ok;
                   if not ok then a.failed <- a.failed + 1
                 | _ -> ());
                 (r.latency_ms, paper)))
        mms)
    kinds

let fig11 a ~size ~family =
  let chains, pages =
    match size with Full -> (List.init 8 succ, 16) | Tiny -> ([ 1; 2 ], 4)
  in
  List.concat_map
    (fun mm ->
      let lb, la =
        match mm with
        | Config.Mm_asvm -> Published.fig11_asvm
        | Config.Mm_xmm -> Published.fig11_xmm
      in
      List.filter_map
        (fun chain ->
          attempt a ~family (fun h ->
              Copy_chain.measure ~mm ~chain ~pages ~tweak:h.tweak
                ~on_start:h.on_start ~inspect:h.inspect ())
          |> Option.map (fun (r : Copy_chain.result) ->
                 (r.mean_fault_ms, lb +. (float_of_int (chain - 1) *. la))))
        chains)
    mms

let table2 a ~size ~family =
  let rows, file_mb =
    match size with
    | Full -> (Published.table2, 4)
    | Tiny -> (List.filteri (fun i _ -> i < 2) Published.table2, 1)
  in
  List.concat_map
    (fun (nodes, asvm_w, xmm_w, asvm_r, xmm_r) ->
      List.filter_map
        (fun (op, mm, paper) ->
          attempt a ~family (fun h ->
              let test =
                match op with `Write -> File_io.write_test | `Read -> File_io.read_test
              in
              test ~mm ~nodes ~file_mb ~tweak:h.tweak ~on_start:h.on_start
                ~inspect:h.inspect ())
          |> Option.map (fun (r : File_io.result) -> (r.per_node_mb_s, paper)))
        [
          (`Write, Config.Mm_asvm, asvm_w);
          (`Write, Config.Mm_xmm, xmm_w);
          (`Read, Config.Mm_asvm, asvm_r);
          (`Read, Config.Mm_xmm, xmm_r);
        ])
    rows

let paper_cells ~traced ~size =
  let a = acc ~traced in
  let family name run =
    let host0 = a.host_s in
    let id = Probe.open_span name (Probe.now ()) in
    let pairs = run a ~size ~family:id in
    Probe.close_span id (Probe.now ());
    (pairs, a.host_s -. host0)
  in
  let t1, t1_s = family "paper.table1" table1 in
  let f11, f11_s = family "paper.fig11" fig11 in
  let t2, t2_s = family "paper.table2" table2 in
  let specific = [ sim "paper_err_pct" "%" (Published.err_pct (t1 @ f11 @ t2)) ] in
  let extra =
    [
      ("paper.table1_err_pct", Published.err_pct t1);
      ("paper.fig11_err_pct", Published.err_pct f11);
      ("paper.table2_err_pct", Published.err_pct t2);
      ("paper.table1_s", t1_s);
      ("paper.fig11_s", f11_s);
      ("paper.table2_s", t2_s);
    ]
  in
  check a "paper-cells: every cell completed" (a.failed = 0);
  finish a ~specific ~extra

let run ~workload ~traced ~size ~seed =
  Probe.reset ~tracing:traced;
  match workload with
  | "serve-asvm-64" -> serve ~traced ~size ~seed
  | "em3d-32" -> em3d ~traced ~size ~seed
  | "paper-cells" -> paper_cells ~traced ~size
  | w -> invalid_arg ("unknown workload " ^ w)
