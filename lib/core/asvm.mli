(** ASVM — the Advanced Shared Virtual Memory system (the paper's
    contribution).

    Design rules implemented (paper section 3.1):
    - {b Distributed manager}: every page has its own manager — the page
      {e owner}, the node that most recently had write access. Ownership
      migrates on write grants, reader hand-offs and internode pageout.
    - {b Limited memory}: a node holds owner state only for pages in its
      VM cache; ownership {e hints} live in bounded caches.
    - {b Asynchronous state transitions}: nothing ever blocks a thread;
      every operation is a message-driven state machine.
    - {b Specialized protocol on STS}: fixed 32-byte headers, page
      contents only in reply to a request (receive buffers prereserved).

    Request forwarding (section 3.4) stacks three mechanisms, each
    backing up the previous: {e dynamic} hint chains, the {e static}
    (hash-distributed) ownership manager with [fresh]/[paged] hints, and
    {e global} forwarding around the sharer ring. Dynamic and static can
    be disabled per object, degenerating into Li's fixed- or
    dynamic-distributed manager schemes.

    Internode paging (section 3.6) implements the four-step eviction
    algorithm; delayed copy (section 3.7) implements distributed
    push/pull with per-object/per-page version counters, push-scan
    requests for shared copy objects, and the push/pull retry race
    resolution. *)

module Vm = Asvm_machvm.Vm
module Prot = Asvm_machvm.Prot

(** Which forwarding mechanisms an object's requests may use; the
    global ring sweep is always the last resort. *)
type forwarding = { dynamic : bool; static : bool }

type config = {
  sts : Asvm_sts.Sts.config;
  dynamic_cache_pages : int;  (** per-node dynamic hint cache capacity *)
  static_cache_pages : int;  (** per-node static manager table capacity *)
  internode_paging : bool;
      (** enable eviction step 3 (page transfer to a node with free
          memory); disabling it degrades eviction to the pager path,
          for the ablation benchmark *)
}

val default_config : config

type t

(** [metrics] receives every count the protocol keeps — [asvm.msgs]
    (labels [class]/[group]/[contents]),
    [asvm.msgs.ownership_transfer], [asvm.forwarding] (label
    [mechanism]), [asvm.revoked_reads], [asvm.pageout] (label [step]),
    [asvm.copy] (label [op]), [asvm.crash] (label [event]),
    [asvm.ownership_transfers], [asvm.invalidations],
    [asvm.zero_grants], [asvm.pager_supplies] — and the
    [asvm.fault_ms] / [asvm.recovery_ms] latency histograms; a private
    registry is created when omitted.  The message series, the fault
    histograms and the per-message trace events go through one
    {!Asvm_obs.Msg_meter}.  [trace] receives one structured
    {!Asvm_obs.Trace.Msg} event per protocol message, an
    {!Asvm_obs.Trace.Ownership} event per ownership transition, and
    [asvm.park] / [asvm.pageout_wait] / [asvm.sweep] /
    [asvm.revoked_read] / [asvm.stale_drop] notes for requests parked
    behind an in-flight fault, held behind a pageout, sent round the
    ring of sharers (with the reason), asked again after a revoked read
    grant, or dropped as stale.  See [docs/OBSERVABILITY.md]. *)
val create :
  net:Asvm_mesh.Network.t ->
  config:config ->
  vms:Vm.t array ->
  words_per_page:int ->
  ?metrics:Asvm_obs.Metrics.Registry.t ->
  ?trace:Asvm_obs.Trace.t ->
  unit ->
  t

(** {1 Object registration} *)

(** Register a distributed memory object. Representations must already
    exist on every sharer's VM (same id, same size). [pagers] are the
    object's pager tasks — one for ordinary objects; several for striped
    files, served round-robin by page number (the paper's section 6
    proposal). [shadow] marks a copy object: [(source id, peer node)] —
    the node the copy was created on, where pulls walk the local shadow
    chain (figure 9). [forwarding] (default: both mechanisms on) is the
    paper's per-object choice of forwarding mechanisms.  Installs the
    EMMI manager proxies. *)
val register_object :
  t ->
  obj:Asvm_machvm.Ids.obj_id ->
  size_pages:int ->
  sharers:int list ->
  pagers:Asvm_pager.Store_pager.t list ->
  ?forwarding:forwarding ->
  ?shadow:Asvm_machvm.Ids.obj_id * int ->
  unit ->
  unit

(** {1 Delayed copy orchestration} *)

(** Announce that a copy of [src] was made on [peer].
    [shared = Some copy_id] for a copy object that is itself distributed
    (pushed pages go through push-scan to the copy's peer);
    [shared = None] for a node-local copy (the peer's kernel copy chain
    receives pushes via [Lock_push_first]).

    Broadcasts the version bump to all sharers, which mark their
    resident pages of [src] read-only — the next write anywhere triggers
    the distributed push (paper 3.7). *)
val object_copied :
  t ->
  src:Asvm_machvm.Ids.obj_id ->
  peer:int ->
  shared:Asvm_machvm.Ids.obj_id option ->
  (unit -> unit) ->
  unit

(** Register [node] as owner of every page of [obj] currently resident
    in its VM cache. Used when a node-local object is promoted to a
    distributed one (remote fork of inherited memory): before promotion
    only the home node holds data, so claiming its residents preserves
    the owner-residency invariant. *)
val claim_residents : t -> node:int -> obj:Asvm_machvm.Ids.obj_id -> unit

(** Announce that the existing copy object [copy] (peer [peer]) of [src]
    has become shared across nodes: all sharers of [src] add it to their
    shared-copy lists so pushes go through push-scan rather than the
    peer's kernel copy chain (which the caller must unsplice). Does not
    bump the version — no new copy was made. *)
val copy_promoted :
  t ->
  src:Asvm_machvm.Ids.obj_id ->
  copy:Asvm_machvm.Ids.obj_id ->
  peer:int ->
  (unit -> unit) ->
  unit

(** {1 Range locking (paper section 6)} *)

(** Pin a page this node owns: remote access requests queue at the
    owner until {!release_page}. Returns [false] if the node is not
    currently the page's (idle) owner — acquire write access first.
    This is the primitive the paper proposes for guaranteeing atomicity
    of read/write operations in a striped filesystem. *)
val hold_page : t -> node:int -> obj:Asvm_machvm.Ids.obj_id -> page:int -> bool

(** Release a held page and serve the requests that queued meanwhile. *)
val release_page :
  t -> node:int -> obj:Asvm_machvm.Ids.obj_id -> page:int -> unit

(** {1 Crash and rejoin (see [docs/AVAILABILITY.md])} *)

(** Recover the shared protocol state from a whole-node crash.  The
    caller must already have marked the node down in the mesh registry
    ({!Asvm_mesh.Network.set_down}) and reset its kernel
    ({!Asvm_machvm.Vm.crash_reset}) — the cluster layer does both.
    [node] must host no pager of any object: a pager's grant table,
    pageout windows and the messages only its node receives are not
    recovered ([Cluster.crashable] is false for every pager's node).

    In order: tears down the victim's transport state (credit pool,
    retransmission timers), replaces its protocol instances with empty
    ones whose static-manager table is conservatively marked ever-owned,
    purges the victim from survivors' reader lists and pager grant
    tables, re-elects an owner for every victim-owned page from its
    surviving readers (falling back to the pager image, or fresh), and
    re-drives requests that were parked at — or actively served by —
    the victim from their surviving origins.  Messages in flight around
    the crash arrive later at the transport dead-letter hook and are
    salvaged case by case.  Progress is counted in the [asvm.crash]
    series, label [event]: [reelection], [redrive], [salvaged],
    [rescued_page], [stale_request], [stale_reply], and the documented
    loss cases [lost_grant] / [lost_page]. *)
val crash_node : t -> node:int -> unit

(** Re-admit a node after {!crash_node}, once the mesh registry marks it
    up again.  The node returns with empty caches and no owned pages;
    kernel faults that survived the crash re-fault from scratch, each
    sampled into the [asvm.recovery_ms] histogram when it completes. *)
val rejoin_node : t -> node:int -> unit

(** {1 Introspection} *)

val sts_messages : t -> int

(** Messages retransmitted by the reliable-STS layer (0 unless
    [config.sts.reliability] is enabled). *)
val sts_retransmits : t -> int

(** Outstanding STS page receive buffers reserved at [node].  Zero on a
    quiescent system — every reservation is released when its reply is
    consumed — which the chaos invariant checker asserts. *)
val buffers_reserved : t -> node:int -> int

(** A fresh copy of the event counts listed at {!create}, read from
    the registry, under the names the [perfbench] benchmark reads
    ([forward.dynamic], [forward.global_sweeps], [pageout.to_pager],
    [crash.lost_pages], ...; [docs/OBSERVABILITY.md] maps each name to
    its series).  Counts still at zero are absent; writing to the copy
    changes nothing. *)
val counters : t -> Asvm_simcore.Stats.Counters.t

(** Owner-state entries currently held at [node] for [obj] — the
    "memory tied to resident pages" claim (section 3.1). *)
val owner_entries : t -> node:int -> obj:Asvm_machvm.Ids.obj_id -> int

(** Estimated non-pageable bytes this node devotes to [obj]: owner
    entries (tied to resident pages) plus the bounded hint caches.
    Contrast with {!Asvm_xmm.Xmm.state_bytes}, which grows with
    [pages x nodes] regardless of use — the paper's "limited memory
    requirements" design rule made measurable. *)
val state_bytes : t -> node:int -> obj:Asvm_machvm.Ids.obj_id -> int

(** Is [node] the current owner of (obj, page)? For invariant checks. *)
val is_owner : t -> node:int -> obj:Asvm_machvm.Ids.obj_id -> page:int -> bool

(** Nodes with read access registered at the owner, if an owner exists. *)
val readers : t -> obj:Asvm_machvm.Ids.obj_id -> page:int -> int list option

(** The pages of [obj] some node owns, ascending.  For invariant checks:
    {!readers} is [None] on every other page. *)
val owned_pages : t -> obj:Asvm_machvm.Ids.obj_id -> int list

(** Audit the protocol's global invariants on a quiescent system (run
    the engine dry first). Returns human-readable violations; the empty
    list means:
    - at most one owner per page, and no owner-side operation stuck
      mid-flight;
    - every owner holds the page in its VM cache (owner residency);
    - every reader registered at an owner is a distinct sharer, not the
      owner itself;
    - kernel write access implies ownership (single writer);
    - no parked foreign requests, pager lookups waiting on a pageout,
      or unanswered continuations remain.

    The per-page checks visit the pages some instance owns or some
    instance's node holds, ascending: the cost follows what is resident,
    not the object's size.  [pages ~obj ~size] replaces that set; a test
    passes every page to compare the two walks. *)
val check_invariants :
  ?pages:(obj:Asvm_machvm.Ids.obj_id -> size:int -> int list) ->
  t ->
  string list
