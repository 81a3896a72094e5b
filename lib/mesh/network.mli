(** Message delivery over the mesh.

    The model splits a message's cost into:
    - sender-side software time ([sw_send]), occupying the sender's
      transmit station (messages from one node serialize);
    - wire time: fixed start-up + per-hop routing + per-byte transfer
      (wormhole routing makes this latency, not occupancy);
    - receiver-side software time ([sw_recv]), occupying the receiver's
      receive station (a hot receiver — e.g. the XMM centralized manager —
      queues incoming work).

    The continuation runs on the receiver once its station has processed
    the message. *)

type config = {
  fixed_ms : float;  (** wire start-up cost per message *)
  per_hop_ms : float;  (** router traversal per hop *)
  per_byte_ms : float;  (** transfer time per payload byte *)
}

(** Paragon-like mesh: 200 MB/s links, sub-microsecond routers. *)
val paragon_config : config

type t

(** {1 Fault interposition}

    A chaos interposer (see [lib/chaos]) observes every message at the
    moment it would enter the sender's transmit station and decides how
    many copies reach the receiver and how much extra wire delay each
    copy pays.  The decision must be a pure function of its arguments:
    [index] is the network-wide message ordinal (0-based, assigned in
    send order), which the deterministic engine makes reproducible for
    a fixed workload and seed, independent of host parallelism. *)

(** One entry per delivered copy, each the extra wire latency (ms) that
    copy pays on top of the modeled wire time.  [[]] drops the message
    (the sender still pays its software path — the message died on the
    wire); [[ 0. ]] is unperturbed delivery; two or more entries
    duplicate the message. *)
type decision = { deliveries : float list }

(** [{ deliveries = [ 0. ] }] — deliver exactly once, unperturbed. *)
val pass : decision

type interposer =
  now:float -> index:int -> src:int -> dst:int -> bytes:int -> decision

(** Install (or remove, with [None]) the fault interposer.  With no
    interposer installed the send path is exactly the unperturbed one. *)
val set_interposer : t -> interposer option -> unit

(** [create ?metrics engine config topology].  Each send bumps the
    [net.messages] / [net.bytes] counters of [metrics] (a private
    registry when omitted) and samples the sender's transmit-queue
    backlog (ms of queued service time) into the [net.tx_backlog_ms]
    histogram.  Those counters are the only store of {!messages} and
    {!bytes_sent}, so a registry shared by two networks sums them. *)
val create :
  ?metrics:Asvm_obs.Metrics.Registry.t ->
  Asvm_simcore.Engine.t ->
  config ->
  Topology.t ->
  t

val topology : t -> Topology.t
val engine : t -> Asvm_simcore.Engine.t

(** {1 Liveness registry}

    Whole-node crash support (see [lib/chaos] and
    [docs/AVAILABILITY.md]).  The network itself never drops messages
    for a dead node — deliveries already committed to the event queue
    would bypass any send-time check.  Instead the registry records
    which nodes are down, and the transports (STS, NORMA-IPC) consult
    it at {e delivery} time, comparing the receiver's incarnation
    against the one captured when the message was transmitted. *)

(** Mark [node] dead.  Idempotent; the first call of a down/up cycle
    bumps the node's incarnation, so messages sent to (or handlers
    armed for) the previous incarnation can be recognized as stale
    even after the node rejoins. *)
val set_down : t -> int -> unit

(** Mark [node] live again (a rejoin).  Does not change the
    incarnation — that happened at {!set_down}. *)
val set_up : t -> int -> unit

val is_down : t -> int -> bool

(** How many times [node] has crashed so far (0 = never). *)
val incarnation : t -> int -> int

(** [current t node inc]: [node] is up and still the incarnation [inc]. *)
val current : t -> int -> int -> bool

(** [send t ~src ~dst ~bytes ~sw_send ~sw_recv k] models one message.
    [src = dst] is allowed (loopback skips the wire but still pays the
    software path).
    @raise Invalid_argument when [src] or [dst] is outside the
    topology, naming the offending ids and the node count. *)
val send :
  t ->
  src:int ->
  dst:int ->
  bytes:int ->
  sw_send:float ->
  sw_recv:float ->
  (unit -> unit) ->
  unit

(** Total messages sent so far. *)
val messages : t -> int

(** Total payload bytes sent so far. *)
val bytes_sent : t -> int

(** Wire latency (ms) for a [bytes]-sized payload between two nodes,
    excluding software time — exposed for tests and capacity planning. *)
val wire_latency : t -> src:int -> dst:int -> bytes:int -> float
