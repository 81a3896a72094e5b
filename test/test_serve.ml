(* Tests for the open-loop serving subsystem: arrival-process
   statistics and determinism, exact histogram merging, the
   low-memory fault path ([Vm.try_accept_page]'s synchronous-eviction
   backstop), the watermark pageout daemon, and end-to-end serving
   cells. *)

module Engine = Asvm_simcore.Engine
module M = Asvm_machvm
module Vm = M.Vm
module Prot = M.Prot
module Contents = M.Contents
module Emmi = M.Emmi
module Metrics = Asvm_obs.Metrics
module Arrival = Asvm_serve.Arrival
module Serve = Asvm_serve.Serve
module Config = Asvm_cluster.Config

(* ----------------------- arrival processes ----------------------- *)

let dist = Arrival.Zipf 0.9

let sched ?(seed = 7) ?(duration_ms = 2000.) ?(key_dist = dist) process =
  Arrival.schedule process ~seed ~duration_ms ~nodes:4 ~keys:128
    ~read_fraction:0.8 ~key_dist

let test_schedule_deterministic () =
  (* the whole point of pre-materialized open-loop arrivals: the same
     seed gives the same schedule, element for element, on every call
     (and therefore at any --jobs — workers share nothing) *)
  List.iter
    (fun process ->
      let a = sched process and b = sched process in
      Alcotest.(check int)
        "same length" (Array.length a) (Array.length b);
      Array.iteri
        (fun i (r : Arrival.request) ->
          let s = b.(i) in
          if
            r.at_ms <> s.at_ms || r.node <> s.node || r.key <> s.key
            || r.op <> s.op
          then Alcotest.failf "request %d differs between identical runs" i)
        a)
    [
      Arrival.Poisson { rate_per_s = 800. };
      Arrival.Bursty
        { on_rate_per_s = 2000.; off_rate_per_s = 200.; on_ms = 40.; off_ms = 60. };
    ]

let test_schedule_seed_sensitivity () =
  let a = sched ~seed:1 (Arrival.Poisson { rate_per_s = 800. }) in
  let b = sched ~seed:2 (Arrival.Poisson { rate_per_s = 800. }) in
  let same =
    Array.length a = Array.length b
    && Array.for_all2
         (fun (r : Arrival.request) (s : Arrival.request) ->
           r.at_ms = s.at_ms)
         a b
  in
  Alcotest.(check bool) "different seeds differ" false same

let test_poisson_statistics () =
  (* exponential inter-arrivals at rate r: mean 1/r, variance 1/r^2.
     30 s at 1000 req/s is ~30k samples; 5% tolerance is ~8 sigma. *)
  let rate = 1000. in
  let a =
    sched ~duration_ms:30_000. (Arrival.Poisson { rate_per_s = rate })
  in
  let gaps =
    Array.init
      (Array.length a - 1)
      (fun i -> a.(i + 1).Arrival.at_ms -. a.(i).Arrival.at_ms)
  in
  let n = float_of_int (Array.length gaps) in
  let mean = Array.fold_left ( +. ) 0. gaps /. n in
  let var =
    Array.fold_left (fun acc g -> acc +. ((g -. mean) ** 2.)) 0. gaps /. n
  in
  let expected_mean = 1000. /. rate in
  Alcotest.(check bool)
    (Printf.sprintf "mean inter-arrival %.4f ms within 5%% of %.4f" mean
       expected_mean)
    true
    (Float.abs (mean -. expected_mean) < 0.05 *. expected_mean);
  Alcotest.(check bool)
    (Printf.sprintf "inter-arrival variance %.4f within 10%% of %.4f" var
       (expected_mean ** 2.))
    true
    (Float.abs (var -. (expected_mean ** 2.)) < 0.1 *. (expected_mean ** 2.))

let test_arrivals_sorted_and_bounded () =
  let a =
    sched
      (Arrival.Bursty
         { on_rate_per_s = 2500.; off_rate_per_s = 250.; on_ms = 40.; off_ms = 60. })
  in
  Array.iteri
    (fun i (r : Arrival.request) ->
      if i > 0 && r.at_ms < a.(i - 1).Arrival.at_ms then
        Alcotest.failf "arrivals out of order at %d" i;
      if r.at_ms < 0. || r.at_ms >= 2000. then
        Alcotest.failf "arrival %d outside the window" i;
      if r.node < 0 || r.node >= 4 then Alcotest.failf "bad node at %d" i;
      if r.key < 0 || r.key >= 128 then Alcotest.failf "bad key at %d" i)
    a

let test_zipf_skew () =
  (* Zipf 0.9 over 128 keys: rank-1 weight ~ 1/H, far above the
     uniform 1/128 share; uniform stays near it *)
  let popularity key_dist =
    let a = sched ~duration_ms:30_000. ~key_dist (Arrival.Poisson { rate_per_s = 1000. }) in
    let counts = Array.make 128 0 in
    Array.iter
      (fun (r : Arrival.request) -> counts.(r.key) <- counts.(r.key) + 1)
      a;
    let top = Array.fold_left max 0 counts in
    float_of_int top /. float_of_int (Array.length a)
  in
  Alcotest.(check bool)
    "zipf top key well above uniform share" true
    (popularity (Arrival.Zipf 0.9) > 3. /. 128.);
  Alcotest.(check bool)
    "uniform top key near uniform share" true
    (popularity Arrival.Uniform < 2. /. 128.)

let test_read_fraction () =
  let a = sched ~duration_ms:30_000. (Arrival.Poisson { rate_per_s = 1000. }) in
  let reads =
    Array.fold_left
      (fun acc (r : Arrival.request) ->
        if r.op = Arrival.Read then acc + 1 else acc)
      0 a
  in
  let frac = float_of_int reads /. float_of_int (Array.length a) in
  Alcotest.(check bool)
    (Printf.sprintf "read fraction %.3f near 0.8" frac)
    true
    (Float.abs (frac -. 0.8) < 0.02)

(* ----------------------- histogram merge ----------------------- *)

let histogram_merge_exact =
  QCheck.Test.make ~name:"Histogram.merge equals pooled observation"
    ~count:200
    QCheck.(pair (list (float_bound_exclusive 1000.)) (list (float_bound_exclusive 1000.)))
    (fun (xs, ys) ->
      let a = Metrics.Histogram.create ()
      and b = Metrics.Histogram.create ()
      and pooled = Metrics.Histogram.create () in
      List.iter (fun x -> Metrics.Histogram.observe a x) xs;
      List.iter (fun y -> Metrics.Histogram.observe b y) ys;
      List.iter (fun v -> Metrics.Histogram.observe pooled v) (xs @ ys);
      let m = Metrics.Histogram.merge a b in
      Metrics.Histogram.count m = List.length xs + List.length ys
      && List.for_all
           (fun p ->
             Metrics.Histogram.count m = 0
             || Metrics.Histogram.percentile m p
                = Metrics.Histogram.percentile pooled p)
           [ 0.; 25.; 50.; 90.; 99.; 99.9; 100. ])

let histogram_merge_leaves_inputs =
  QCheck.Test.make ~name:"Histogram.merge does not mutate its inputs"
    ~count:100
    QCheck.(pair (list (float_bound_exclusive 100.)) (list (float_bound_exclusive 100.)))
    (fun (xs, ys) ->
      let a = Metrics.Histogram.create ()
      and b = Metrics.Histogram.create () in
      List.iter (fun x -> Metrics.Histogram.observe a x) xs;
      List.iter (fun y -> Metrics.Histogram.observe b y) ys;
      ignore (Metrics.Histogram.merge a b);
      Metrics.Histogram.count a = List.length xs
      && Metrics.Histogram.count b = List.length ys)

(* ------------------- low-memory fault path ------------------- *)

let wpp = 4

let make_vm ~memory_pages ?(config = M.Vm_config.default) () =
  let engine = Engine.create () in
  let config = { config with M.Vm_config.words_per_page = wpp; memory_pages } in
  let ids = M.Ids.Alloc.create () in
  let vm =
    Vm.create ~engine ~node:0 ~config ~backing:(M.Backing.in_memory ()) ~ids
  in
  (engine, ids, vm)

let fill_cache engine ids vm task pages =
  let obj =
    Vm.create_object vm ~id:(M.Ids.Alloc.fresh ids) ~size_pages:pages
      ~temporary:true
  in
  ignore
    (Vm.map vm ~task ~obj:obj.M.Vm_object.id ~start:0 ~npages:pages
       ~obj_offset:0 ~inherit_:M.Address_map.Inherit_copy);
  for p = 0 to pages - 1 do
    let done_ = ref false in
    Vm.touch vm ~task ~vpage:p ~want:Prot.Read_write (fun () -> done_ := true);
    Engine.run engine;
    if not !done_ then Alcotest.fail "warm-up touch did not complete"
  done

let test_accept_page_evicts_for_parked_fault () =
  (* vm.mli's [try_accept_page] contract: a page a parked fault waits
     for is accepted even when the cache is full — one synchronous
     eviction makes room — while placement traffic is refused *)
  let engine, ids, vm = make_vm ~memory_pages:4 () in
  let task = Vm.create_task vm in
  fill_cache engine ids vm task 4;
  Alcotest.(check int) "cache full" 0 (Vm.free_pages vm);
  (* a managed object whose manager never answers: the fault parks *)
  let requested = ref [] in
  let manager =
    {
      Emmi.null_manager with
      Emmi.m_data_request =
        (fun ~page ~desired:_ -> requested := page :: !requested);
      m_data_return = (fun ~page:_ ~contents:_ ~dirty:_ -> ());
    }
  in
  let mobj =
    Vm.create_object vm ~id:(M.Ids.Alloc.fresh ids) ~size_pages:2
      ~temporary:false
  in
  let moid = mobj.M.Vm_object.id in
  Vm.set_manager vm moid (Some manager);
  ignore
    (Vm.map vm ~task ~obj:moid ~start:100 ~npages:2 ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_share);
  let completed = ref false in
  Vm.touch vm ~task ~vpage:100 ~want:Prot.Read_only (fun () ->
      completed := true);
  Engine.run engine;
  Alcotest.(check bool) "fault parked on the manager" false !completed;
  Alcotest.(check (list int)) "manager saw the request" [ 0 ] !requested;
  (* placement traffic (no fault waiting) is refused while full *)
  let c = Contents.zero ~words:wpp in
  Alcotest.(check bool)
    "placement refused when full" false
    (Vm.try_accept_page vm ~obj:moid ~page:1 ~contents:c ~dirty:false
       ~access:Prot.Read_only);
  (* the page the fault waits for is accepted: one frame is evicted *)
  let evictions_before = Vm.evictions vm in
  Alcotest.(check bool)
    "fault's page accepted" true
    (Vm.try_accept_page vm ~obj:moid ~page:0 ~contents:c ~dirty:false
       ~access:Prot.Read_only);
  Engine.run engine;
  Alcotest.(check bool) "fault completed" true !completed;
  Alcotest.(check bool)
    "made room by evicting" true
    (Vm.evictions vm > evictions_before)

let test_accept_page_plain_when_room () =
  let engine, ids, vm = make_vm ~memory_pages:8 () in
  let task = Vm.create_task vm in
  fill_cache engine ids vm task 2;
  let obj =
    Vm.create_object vm ~id:(M.Ids.Alloc.fresh ids) ~size_pages:1
      ~temporary:false
  in
  Vm.set_manager vm obj.M.Vm_object.id (Some Emmi.null_manager);
  let c = Contents.zero ~words:wpp in
  Alcotest.(check bool)
    "accepted with free memory" true
    (Vm.try_accept_page vm ~obj:obj.M.Vm_object.id ~page:0 ~contents:c
       ~dirty:false ~access:Prot.Read_only);
  Alcotest.(check bool)
    "resident afterwards" true
    (Vm.is_resident vm ~obj:obj.M.Vm_object.id ~page:0)

(* ------------------- watermark pageout daemon ------------------- *)

let test_pageout_daemon () =
  let config = M.Vm_config.with_pageout ~low:2 ~high:4 M.Vm_config.default in
  let engine, ids, vm = make_vm ~memory_pages:8 ~config () in
  let task = Vm.create_task vm in
  (* filling the cache crosses the low watermark (2 free), arming a
     scan that evicts back to the high watermark *)
  fill_cache engine ids vm task 8;
  Engine.run engine;
  Alcotest.(check bool) "daemon ran" true (Vm.pageout_runs vm >= 1);
  Alcotest.(check bool)
    "free pages restored to the high watermark" true
    (Vm.free_pages vm >= 4);
  Alcotest.(check bool)
    "daemon evictions counted" true
    (Vm.pageout_evictions vm > 0 && Vm.pageout_evictions vm <= Vm.evictions vm)

let test_pageout_daemon_disabled () =
  let engine, ids, vm = make_vm ~memory_pages:8 () in
  let task = Vm.create_task vm in
  fill_cache engine ids vm task 7;
  Engine.run engine;
  Alcotest.(check int) "no scans with low = 0" 0 (Vm.pageout_runs vm)

(* ------------------------- serving cells ------------------------- *)

let quick_params =
  {
    Serve.default_params with
    Serve.duration_ms = 150.;
    process = Arrival.Poisson { rate_per_s = 600. };
    oversub = 1.5;
    queue_samples = 8;
  }

let check_result label (r : Serve.result) =
  Alcotest.(check int)
    (label ^ ": open loop drains")
    r.Serve.requests r.completions;
  Alcotest.(check bool) (label ^ ": served requests") true (r.requests > 0);
  Alcotest.(check bool)
    (label ^ ": percentiles ordered") true
    (r.p50_ms <= r.p99_ms && r.p99_ms <= r.p999_ms && r.p999_ms <= r.max_ms);
  Alcotest.(check int)
    (label ^ ": shard merge is exact")
    r.registry_count r.merged_count;
  Alcotest.(check int)
    (label ^ ": every latency sampled")
    r.completions r.merged_count;
  Alcotest.(check bool)
    (label ^ ": oversubscription forced paging") true (r.evictions > 0)

let test_serve_smoke_asvm () = check_result "asvm" (Serve.run ~mm:Config.Mm_asvm quick_params)
let test_serve_smoke_xmm () = check_result "xmm" (Serve.run ~mm:Config.Mm_xmm quick_params)

let test_serve_deterministic () =
  let a = Serve.run ~mm:Config.Mm_asvm quick_params in
  let b = Serve.run ~mm:Config.Mm_asvm quick_params in
  Alcotest.(check int) "same request count" a.Serve.requests b.Serve.requests;
  Alcotest.(check bool)
    "identical latency samples" true
    (a.Serve.latency_values = b.Serve.latency_values);
  Alcotest.(check (float 0.))
    "identical p999" a.Serve.p999_ms b.Serve.p999_ms

let test_serve_seed_changes_run () =
  let a = Serve.run ~mm:Config.Mm_asvm quick_params in
  let b =
    Serve.run ~mm:Config.Mm_asvm { quick_params with Serve.seed = 43 }
  in
  Alcotest.(check bool)
    "different seed gives a different run" false
    (a.Serve.latency_values = b.Serve.latency_values)

(* The registry series behind each name of [Asvm.counters], the view
   the benchmark reads.  Pinned here so a rename on either side shows. *)
let asvm_count_series =
  let fwd m = ("asvm.forwarding", [ ("mechanism", m) ]) in
  let copy op = ("asvm.copy", [ ("op", op) ]) in
  let pageout step = ("asvm.pageout", [ ("step", step) ]) in
  let crash event = ("asvm.crash", [ ("event", event) ]) in
  [
    ("forward.loop_breaks", fwd "loop_break");
    ("forward.dynamic", fwd "dynamic");
    ("forward.to_static", fwd "to_static");
    ("forward.static_hit", fwd "static_hit");
    ("forward.fresh_hint", fwd "fresh_hint");
    ("forward.paged_hint", fwd "paged_hint");
    ("forward.global_sweeps", fwd "global_sweep");
    ("forward.park_timeouts", ("asvm.park_timeouts", []));
    ("ownership_transfers", ("asvm.ownership_transfers", []));
    ("invalidations", ("asvm.invalidations", []));
    ("zero_grants", ("asvm.zero_grants", []));
    ("pager.supplies", ("asvm.pager_supplies", []));
    ("pushes", copy "push");
    ("push_scans", copy "push_scan");
    ("copy.pulls", copy "pull");
    ("copy.retries", copy "retry");
    ("pageout.reader_handoffs", pageout "reader_handoff");
    ("pageout.internode", pageout "internode");
    ("pageout.to_pager", pageout "to_pager");
    ("crash.reelections", crash "reelection");
    ("crash.redrives", crash "redrive");
    ("crash.salvaged", crash "salvaged");
    ("crash.rescued_pages", crash "rescued_page");
    ("crash.stale_requests", crash "stale_request");
    ("crash.stale_replies", crash "stale_reply");
    ("crash.lost_grants", crash "lost_grant");
    ("crash.lost_pages", crash "lost_page");
  ]

(* 16 nodes at 4,000 req/s queue the mesh past the 50 ms park timeout,
   so the cell takes the parking-cycle escape as well as every
   eviction step: each count [Asvm.counters] shows must equal its
   registry series, and the park timeouts must reach the snapshot. *)
let test_asvm_counts_in_registry () =
  let view = ref (Asvm_simcore.Stats.Counters.create ()) in
  let snap = ref [] in
  let inspect cl =
    (match Asvm_cluster.Cluster.backend cl with
    | `Asvm a -> view := Asvm_core.Asvm.counters a
    | `Xmm _ -> Alcotest.fail "expected an ASVM cluster");
    snap := Asvm_cluster.Cluster.metrics_snapshot cl
  in
  ignore
    (Serve.run ~mm:Config.Mm_asvm ~inspect
       {
         Serve.default_params with
         Serve.nodes = 16;
         process = Arrival.Poisson { rate_per_s = 4000. };
       });
  let series_value (name, labels) =
    match Metrics.find !snap name labels with
    | Some (Metrics.Counter_v n) -> n
    | _ -> Alcotest.failf "no counter series %s in the snapshot" name
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name asvm_count_series) then
        Alcotest.failf "Asvm.counters shows %s, which has no series" name)
    (Asvm_simcore.Stats.Counters.to_list !view);
  List.iter
    (fun (name, series) ->
      Alcotest.(check int) name
        (Asvm_simcore.Stats.Counters.get !view name)
        (series_value series))
    asvm_count_series;
  Alcotest.(check bool)
    "park timeouts in the snapshot" true
    (series_value ("asvm.park_timeouts", []) > 0)

let () =
  Alcotest.run "serve"
    [
      ( "arrival",
        [
          Alcotest.test_case "fixed seed reproduces the schedule" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "seeds are live" `Quick
            test_schedule_seed_sensitivity;
          Alcotest.test_case "poisson inter-arrival statistics" `Quick
            test_poisson_statistics;
          Alcotest.test_case "sorted, in-window, in-range" `Quick
            test_arrivals_sorted_and_bounded;
          Alcotest.test_case "zipf skews key popularity" `Quick test_zipf_skew;
          Alcotest.test_case "read/write mix" `Quick test_read_fraction;
        ] );
      ( "histogram",
        [
          QCheck_alcotest.to_alcotest histogram_merge_exact;
          QCheck_alcotest.to_alcotest histogram_merge_leaves_inputs;
        ] );
      ( "low-memory fault path",
        [
          Alcotest.test_case "full cache evicts for a parked fault" `Quick
            test_accept_page_evicts_for_parked_fault;
          Alcotest.test_case "plain accept with room" `Quick
            test_accept_page_plain_when_room;
        ] );
      ( "pageout daemon",
        [
          Alcotest.test_case "scan restores the high watermark" `Quick
            test_pageout_daemon;
          Alcotest.test_case "disabled at low = 0" `Quick
            test_pageout_daemon_disabled;
        ] );
      ( "serving",
        [
          Alcotest.test_case "asvm cell drains with ordered SLOs" `Quick
            test_serve_smoke_asvm;
          Alcotest.test_case "xmm cell drains with ordered SLOs" `Quick
            test_serve_smoke_xmm;
          Alcotest.test_case "deterministic in the seed" `Quick
            test_serve_deterministic;
          Alcotest.test_case "seed is live" `Quick test_serve_seed_changes_run;
          Alcotest.test_case "asvm counts live in the registry" `Quick
            test_asvm_counts_in_registry;
        ] );
    ]
