(** Seed-reproducible open-loop arrival processes.

    The serving workload ({!Serve}) is {e open-loop}: every request's
    arrival instant is fixed before the simulation starts, computed
    here as a pure function of the experiment seed.  Clients do not
    wait for earlier requests to finish before issuing new ones, so a
    saturated memory system grows a queue instead of silently slowing
    the offered load — the difference between measuring latency and
    measuring the generator (see docs/SERVING.md).

    Because the whole schedule is materialized up front from one
    {!Asvm_simcore.Rng.t}, the event sequence is identical at any
    parallel-runner [--jobs] setting. *)

type op = Read | Write

type key_dist =
  | Uniform  (** every key equally popular *)
  | Zipf of float
      (** rank-[k] key has weight [1/k^a] — the skew of real caches;
          [a] around 0.9–1.1 is the classic web/KV shape *)

type process =
  | Poisson of { rate_per_s : float }
      (** memoryless arrivals at a constant mean rate *)
  | Bursty of {
      on_rate_per_s : float;
      off_rate_per_s : float;
      on_ms : float;
      off_ms : float;
    }
      (** on/off modulated Poisson (a 2-state MMPP with deterministic
          phase lengths): arrivals at [on_rate_per_s] for [on_ms], then
          at [off_rate_per_s] for [off_ms], repeating.  Same mean load
          as a Poisson at the phases' time-weighted mean rate, but with
          standing bursts that probe tail latency. *)

type request = { at_ms : float; node : int; key : int; op : op }
(** One pre-scheduled request: at [at_ms] a client task on [node]
    reads or writes (per [op]) the page behind [key]. *)

val process_name : process -> string
(** ["poisson"] or ["bursty"] — the label used in benchmark cells. *)

val schedule :
  process ->
  seed:int ->
  duration_ms:float ->
  nodes:int ->
  keys:int ->
  read_fraction:float ->
  key_dist:key_dist ->
  request array
(** The full request schedule for one run, sorted by arrival time.
    Pure in [seed]: same arguments, same array, on any host and at any
    [--jobs].  Arrival instants, issuing nodes, keys and ops are drawn
    from four independent split streams, so (for tests) the arrival
    {e times} do not depend on how keys or ops are sampled.

    @raise Invalid_argument on non-positive [nodes]/[keys]/rates, a
    [read_fraction] outside [0,1], or a {!Bursty} with [on_ms <= 0] or
    negative [off_ms]. *)
