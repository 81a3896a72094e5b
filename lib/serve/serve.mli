(** Open-loop heavy-traffic serving workload with SLO percentiles.

    Models a production serving fleet on the multicomputer: client
    tasks on every node hammer one shared key-value / page-cache
    region whose working set is sized {e past} aggregate node memory
    (the [oversub] ratio), so the §3.6 four-step eviction path, the
    adaptive pageout cycling counter and the watermark pageout daemon
    ({!Asvm_machvm.Vm_config.with_pageout}) are the bottleneck, not
    the generator.  Requests arrive on a pre-materialized open-loop
    schedule ({!Arrival.schedule}); each one faults the page behind
    its key, completes through the usual continuation path, and
    reports end-to-end latency into per-node shard histograms that are
    {!Asvm_obs.Metrics.Histogram.merge}d for exact p50/p99/p999.

    See docs/SERVING.md for the model and a worked p99 trace. *)

module Config = Asvm_cluster.Config
module Cluster = Asvm_cluster.Cluster
module Metrics = Asvm_obs.Metrics

type params = {
  nodes : int;
  memory_pages : int;  (** per-node resident-page capacity *)
  oversub : float;
      (** working-set pages = [oversub * nodes * memory_pages]; above
          1.0 the fleet cannot hold the working set and must page *)
  duration_ms : float;  (** arrival window (the run drains past it) *)
  process : Arrival.process;
  read_fraction : float;
  key_dist : Arrival.key_dist;
  pageout_low : int;
      (** watermark daemon low/high (pages per node); [low = 0]
          disables the daemon, leaving only the synchronous backstop *)
  pageout_high : int;
  seed : int;
  queue_samples : int;
      (** queue-depth time-series samples across [duration_ms] *)
}

val default_params : params
(** 4 nodes x 64 pages, oversub 1.5, 1 s of Poisson arrivals at
    1000 req/s, 80% reads, Zipf 0.9, daemon watermarks 8/16, 24
    queue samples, seed 42. *)

type result = {
  mm : Config.mm;
  requests : int;
  completions : int;
      (** requests that completed by the drain; fewer than [requests]
          when the protocol strands one (percentiles cover completed
          requests only) *)
  sim_ms : float;
      (** serving window start (post warm-up) to the last completion; the
          drain that follows, while the pager writes back dirty pages, is
          not serving and is left out *)
  goodput_rps : float;  (** completions per simulated second of [sim_ms] *)
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
  queue_depth : (float * int) list;  (** (sim time, in-flight) samples *)
  evictions : int;  (** {!Asvm_machvm.Vm.evictions} summed over nodes *)
  pageout_runs : int;
  pageout_evictions : int;
  pager_stores : int;
      (** page returns (eviction step 4) summed over every pager of the
          served object *)
  reader_handoffs : int;  (** ASVM §3.6 step-2 counters; 0 under XMM *)
  internode_pageouts : int;
  pageouts_to_pager : int;
  latency_values : float array;
      (** every request latency, sorted — the material for CDF plots *)
  merged_count : int;
      (** samples in the merged shard histograms — the
          {!Asvm_obs.Metrics.Histogram.merge} aggregation; always
          equals [registry_count] (merge is exact, not a sketch) *)
  registry_count : int;  (** samples in the registry's [serve.request_ms] *)
  metrics : Metrics.snapshot;
}

val run :
  mm:Config.mm ->
  ?tweak:(Config.t -> Config.t) ->
  ?inspect:(Cluster.t -> unit) ->
  ?on_start:(Cluster.t -> unit) ->
  params ->
  result
(** One serving cell: build a cluster ([tweak] may rewrite the config
    first, e.g. to install a chaos interposer), fault the whole working
    set in once (warm-up, so the measured window serves from full
    caches under standing pressure), pre-schedule every arrival, call
    [on_start] (e.g. to schedule crashes), run to drain, call [inspect]
    (e.g. the chaos invariant checker), and collect the SLO report.
    Deterministic in [params.seed].
    @raise Invalid_argument on nonsense parameters (see
    {!Arrival.schedule}; also [oversub <= 0] or watermarks violating
    [0 <= low <= high <= memory_pages]). *)

val working_set_pages : params -> int
(** [oversub * nodes * memory_pages], rounded up — the key count. *)
