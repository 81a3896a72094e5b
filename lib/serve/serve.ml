module Engine = Asvm_simcore.Engine
module Vm = Asvm_machvm.Vm
module Vm_config = Asvm_machvm.Vm_config
module Address_map = Asvm_machvm.Address_map
module Store_pager = Asvm_pager.Store_pager
module Config = Asvm_cluster.Config
module Cluster = Asvm_cluster.Cluster
module Metrics = Asvm_obs.Metrics

type params = {
  nodes : int;
  memory_pages : int;
  oversub : float;
  duration_ms : float;
  process : Arrival.process;
  read_fraction : float;
  key_dist : Arrival.key_dist;
  pageout_low : int;
  pageout_high : int;
  seed : int;
  queue_samples : int;
}

let default_params =
  {
    nodes = 4;
    memory_pages = 64;
    oversub = 1.5;
    duration_ms = 1000.;
    process = Arrival.Poisson { rate_per_s = 1000. };
    read_fraction = 0.8;
    key_dist = Arrival.Zipf 0.9;
    pageout_low = 8;
    pageout_high = 16;
    seed = 42;
    queue_samples = 24;
  }

type result = {
  mm : Config.mm;
  requests : int;
  completions : int;
  sim_ms : float;
  goodput_rps : float;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
  queue_depth : (float * int) list;
  evictions : int;
  pageout_runs : int;
  pageout_evictions : int;
  pager_stores : int;
  reader_handoffs : int;
  internode_pageouts : int;
  pageouts_to_pager : int;
  latency_values : float array;
  merged_count : int;
  registry_count : int;
  metrics : Metrics.snapshot;
}

let working_set_pages p =
  int_of_float
    (Float.ceil (p.oversub *. float_of_int (p.nodes * p.memory_pages)))

let run ~mm ?(tweak = Fun.id) ?(inspect = ignore) ?(on_start = ignore) p =
  if p.oversub <= 0. then invalid_arg "Serve.run: oversub";
  if p.duration_ms <= 0. then invalid_arg "Serve.run: duration_ms";
  let total_pages = working_set_pages p in
  let reqs =
    Arrival.schedule p.process ~seed:p.seed ~duration_ms:p.duration_ms
      ~nodes:p.nodes ~keys:total_pages ~read_fraction:p.read_fraction
      ~key_dist:p.key_dist
  in
  let config = Config.with_mm (Config.default ~nodes:p.nodes) mm in
  let config = Config.with_memory_pages config p.memory_pages in
  let config =
    {
      config with
      Config.vm =
        Vm_config.with_pageout config.Config.vm ~low:p.pageout_low
          ~high:p.pageout_high;
    }
  in
  let config = tweak config in
  let cl = Cluster.create config in
  let obj =
    Cluster.create_shared_object cl ~size_pages:total_pages
      ~sharers:(List.init p.nodes Fun.id) ()
  in
  let tasks =
    Array.init p.nodes (fun node ->
        let t = Cluster.create_task cl ~node in
        Cluster.map cl ~task:t ~obj ~start:0 ~npages:total_pages
          ~inherit_:Address_map.Inherit_share;
        t)
  in
  let words = config.Config.vm.Vm_config.words_per_page in
  (* Warm-up: fault the whole working set in once (each key from its
     home node) before the measured window, so the caches start full
     and the run measures serving under standing memory pressure, not
     cold-start compulsory misses.  Past oversub 1.0 this alone drives
     free memory through the watermarks and starts the pageout daemon. *)
  let warm_pending = ref 0 in
  for key = 0 to total_pages - 1 do
    incr warm_pending;
    Cluster.write_word cl
      ~task:tasks.(key mod p.nodes)
      ~addr:(key * words) ~value:(key + 1)
      (fun () -> decr warm_pending)
  done;
  Cluster.run cl;
  assert (!warm_pending = 0);
  let t0 = Cluster.now cl in
  let metrics = Cluster.metrics cl in
  let completions_c = Metrics.Registry.counter metrics "serve.completions" in
  let reads_c =
    Metrics.Registry.counter metrics ~labels:[ ("op", "read") ]
      "serve.requests"
  in
  let writes_c =
    Metrics.Registry.counter metrics ~labels:[ ("op", "write") ]
      "serve.requests"
  in
  let lat_h = Metrics.Registry.histogram metrics "serve.request_ms" in
  let depth_g = Metrics.Registry.gauge metrics "serve.queue_depth" in
  (* per-node latency shards, merged at the end — demonstrates (and the
     result certifies) that Histogram.merge is exact pooling *)
  let shards = Array.init p.nodes (fun _ -> Metrics.Histogram.create ()) in
  let inflight = ref 0 in
  let engine = Cluster.engine cl in
  (* the last completion instant, stored unboxed so a completion does
     not allocate *)
  let last_completion = Float.Array.make 1 t0 in
  let samples = ref [] in
  if p.queue_samples > 0 then begin
    let step = p.duration_ms /. float_of_int p.queue_samples in
    for i = 1 to p.queue_samples do
      let at = step *. float_of_int i in
      Engine.schedule_at engine ~time:(t0 +. at) (fun () ->
          Metrics.Gauge.set depth_g (float_of_int !inflight);
          samples := (at, !inflight) :: !samples)
    done
  end;
  Array.iter
    (fun (r : Arrival.request) ->
      let issue_at = t0 +. r.at_ms in
      Engine.schedule_at engine ~time:issue_at (fun () ->
          incr inflight;
          let finish () =
            decr inflight;
            let now = Engine.now engine in
            Float.Array.set last_completion 0 now;
            let lat = now -. issue_at in
            Metrics.Histogram.observe shards.(r.node) lat;
            Metrics.Histogram.observe lat_h lat;
            Metrics.Counter.incr completions_c
          in
          let task = tasks.(r.node) in
          let addr = r.key * words in
          match r.op with
          | Arrival.Read ->
            Metrics.Counter.incr reads_c;
            Cluster.read_word cl ~task ~addr (fun _ -> finish ())
          | Arrival.Write ->
            Metrics.Counter.incr writes_c;
            Cluster.write_word cl ~task ~addr ~value:(r.key + 1) finish))
    reqs;
  on_start cl;
  Cluster.run cl;
  inspect cl;
  let merged =
    Array.fold_left Metrics.Histogram.merge (Metrics.Histogram.create ())
      shards
  in
  let pct p =
    if Metrics.Histogram.count merged = 0 then 0.
    else Metrics.Histogram.percentile merged p
  in
  let sum_vm f =
    let acc = ref 0 in
    for node = 0 to p.nodes - 1 do
      acc := !acc + f (Cluster.node_vm cl node)
    done;
    !acc
  in
  let snap = Cluster.metrics_snapshot cl in
  let pageouts step =
    Metrics.counter_total
      ~where:(fun ls -> List.assoc_opt "step" ls = Some step)
      snap "asvm.pageout"
  in
  let completions = Metrics.Counter.value completions_c in
  let sim_ms = Float.Array.get last_completion 0 -. t0 in
  {
    mm;
    requests = Array.length reqs;
    completions;
    sim_ms;
    goodput_rps =
      (if sim_ms <= 0. then 0.
       else float_of_int completions /. (sim_ms /. 1000.));
    mean_ms = Metrics.Histogram.mean merged;
    p50_ms = pct 50.;
    p99_ms = pct 99.;
    p999_ms = pct 99.9;
    max_ms = pct 100.;
    queue_depth = List.rev !samples;
    evictions = sum_vm Vm.evictions;
    pageout_runs = sum_vm Vm.pageout_runs;
    pageout_evictions = sum_vm Vm.pageout_evictions;
    pager_stores =
      List.fold_left
        (fun acc pager -> acc + Store_pager.stores pager)
        0
        (Cluster.object_pagers cl obj);
    reader_handoffs = pageouts "reader_handoff";
    internode_pageouts = pageouts "internode";
    pageouts_to_pager = pageouts "to_pager";
    latency_values = Metrics.Histogram.values merged;
    merged_count = Metrics.Histogram.count merged;
    registry_count = Metrics.Histogram.count lat_h;
    metrics = snap;
  }
