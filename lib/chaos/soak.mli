(** The chaos soak: every workload under seeded fault plans, audited by
    {!Invariants.check} after quiesce.

    Each protocol gets the harshest plan it can survive: ASVM runs with
    reliable STS under {e lossy} plans (drops, duplicates, blackouts);
    the XMM baseline has no reliability layer over NORMA, so its plans
    are {e delay-only} ({!Plan.random} with [lossy:false]) — a dropped
    datagram would hang it, which is a finding about the baseline, not
    a bug to hunt.

    Beyond message faults, the soak runs {e crash cells}: rolling
    k-of-n whole-node crash/rejoin schedules ({!Plan.rolling}, k = 1 and
    k = 2 over at least 6 nodes) under every workload and both
    protocols, on a perfect network so every anomaly is attributable to
    recovery itself.  Crash cells report recovery latency percentiles
    (the [asvm.recovery_ms] / [xmm.recovery_ms] histograms) and the
    pages whose sole copy died with a node
    ([asvm.crash{event="lost_page"}] — the documented, non-silent loss
    of [docs/AVAILABILITY.md]).

    Every cell is an independent simulation and runs as a pure job on
    the {!Asvm_runner.Runner} pool; outcomes are independent of [jobs].
    A violation is reported with its [(seed, plan)] pair, which replays
    it exactly ([asvm-sim chaos --seed N --workload W --mm M]). *)

(** One workload under one plan. *)
type outcome = {
  mm : Asvm_cluster.Config.mm;
  workload : string;
  plan : Plan.t;
  reliable : bool;  (** reliable STS enabled (ASVM only) *)
  completed : bool;  (** the workload ran to completion *)
  error : string option;  (** exception text when [not completed] *)
  violations : string list;  (** from {!Invariants.check} after quiesce *)
  retransmits : int;
  timeouts : int;
  duplicates_dropped : int;
  sim_ms : float;
  crashes : int;  (** whole-node crashes actually executed *)
  rejoins : int;  (** crashed nodes re-admitted *)
  lost_pages : int;
      (** pages whose only copy died with a node (documented loss) *)
  recovery_p50_ms : float option;
      (** median post-rejoin fault recovery latency, when any occurred *)
  recovery_p99_ms : float option;
}

(** Zero-fault cost of the reliability layer on one ASVM workload:
    the same run with reliability off ([base_]) and on ([rel_]). *)
type overhead = {
  oh_workload : string;
  base_sim_ms : float;
  rel_sim_ms : float;
  rel_retransmits : int;  (** must be 0 on a perfect network *)
}

type report = {
  seeds : int;
  quick : bool;
  outcomes : outcome list;
  crash_outcomes : outcome list;
      (** the rolling crash/rejoin cells, separated for reporting *)
  overheads : overhead list;
  total_violations : int;
  lost_writes : int;
      (** silent losses: live copies disagreeing on contents — must be 0 *)
  incomplete : int;  (** outcomes that crashed or hung *)
}

(** The soak workload names: ["fault"; "chain"; "file"; "em3d"]. *)
val workloads : string list

(** The deterministic rolling crash schedule a crash cell uses for
    [workload]: kill [k] of the workload's crashable victims at a
    cadence matched to its simulated span, each rejoining so that [k]
    nodes are down concurrently at steady state ({!Plan.rolling}).
    @raise Invalid_argument on an unknown workload or [k < 1]. *)
val crash_plan : workload:string -> k:int -> Plan.t

(** [apply_plan ?record ~reliable plan config] installs [plan] in
    [config]: at the mesh ({!Plan.net_interposer}) and at the STS
    logical layer ({!Plan.sts_interposer}), both reporting to [record],
    with the reliable STS on iff [reliable].  The STS settings only
    matter under ASVM: XMM creates no STS. *)
val apply_plan :
  ?record:(Plan.event -> unit) ->
  reliable:bool ->
  Plan.t ->
  Asvm_cluster.Config.t ->
  Asvm_cluster.Config.t

(** Run one cell: [workload] under [plan], installed by {!apply_plan}
    with reliable STS iff [reliable].  This is the reproduce-by-seed
    entry point. *)
val run_one :
  ?quick:bool ->
  mm:Asvm_cluster.Config.mm ->
  workload:string ->
  plan:Plan.t ->
  reliable:bool ->
  unit ->
  outcome

(** The full soak: [seeds] random plans per (protocol, workload), the
    zero-fault overhead cells, and the rolling crash cells (k = 1 and
    k = 2 per workload and protocol).  [quick] shrinks the workload
    sizes for CI. *)
val run : ?jobs:int -> ?seeds:int -> ?quick:bool -> unit -> report

val pp_report : Format.formatter -> report -> unit

(** Schema ["asvm.chaos/v2"]; [total_violations], [lost_writes] and
    [incomplete] are top-level so CI can grep the report without
    parsing it. *)
val to_json : report -> Asvm_obs.Json.t
