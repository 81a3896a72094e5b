(** STS — the SVM Transport Service.

    ASVM's dedicated transport (paper section 3.1): messages are a fixed
    32-byte block of untyped data, optionally followed by the contents of
    one 8 KB VM page. Because page contents are only ever transferred in
    response to a request from their receiver, the receiver can
    preallocate page buffers; flow control reduces to a per-node credit
    pool that requesters draw from before asking for data.  A request
    that finds the pool empty waits, in FIFO order, for the next
    released credit.

    The software path is far cheaper than NORMA's: no typed marshalling,
    no port-right bookkeeping.

    Two opt-in extensions support chaos testing (see [lib/chaos] and
    [docs/RELIABILITY.md]):
    - a fault {!interposer} perturbing the logical message stream
      (drop / delay / duplicate), and
    - a {!reliability} layer (sequence numbers, acks, timeout +
      exponential-backoff retransmission via engine timers, receiver-side
      duplicate suppression) that masks such perturbation.
    With both left at their defaults the send path is exactly the
    historical unreliable-datagram one. *)

(** Structured protocol violation: the transport's flow-control or
    addressing contract was broken at [node].  Machine-readable so the
    invariant checker and the reliability layer can report precisely
    which node misbehaved. *)
exception Protocol_violation of { node : int; what : string }

(** {1 Fault interposition} *)

(** Same shape as {!Asvm_mesh.Network.decision}, applied to logical STS
    messages before they hit the network: one entry per transmitted
    copy, each the extra delay (ms) before the copy enters the network;
    [[]] suppresses transmission entirely. *)
type decision = { deliveries : float list }

(** [{ deliveries = [ 0. ] }] — transmit exactly once, unperturbed. *)
val pass : decision

(** [index] is the per-transport ordinal of physical data transmissions
    (retransmissions included, acks excluded), deterministic for a
    fixed workload and seed. *)
type interposer =
  now:float ->
  index:int ->
  src:int ->
  dst:int ->
  carries_page:bool ->
  decision

(** {1 Reliability} *)

type reliability = {
  ack_timeout_ms : float;  (** initial retransmission timeout *)
  backoff : float;  (** timeout multiplier after each retransmission *)
  max_retransmits : int;
      (** per message; exceeding it raises {!Protocol_violation} at the
          sender — the link is considered broken, not slow *)
}

(** 4 ms initial timeout (several times the worst page-carrying round
    trip), doubling per retry, at most 10 retransmissions. *)
val default_reliability : reliability

type config = {
  sw_send_ms : float;
  sw_recv_ms : float;
  page_extra_ms : float;  (** extra cost each side to stage an 8 KB page *)
  header_bytes : int;  (** fixed untyped block, 32 bytes in the paper *)
  page_buffers : int;  (** preallocated receive buffers per node *)
  reliability : reliability option;
      (** [Some r] sequences every message, acknowledges delivery and
          retransmits on timeout; [None] (default) is the historical
          unreliable datagram service *)
  interposer : interposer option;
      (** fault-injection hook over logical STS transmissions;
          [None] (default) leaves the stream untouched *)
}

val default_config : config

type 'msg t

(** [create ?metrics ?trace net config] builds a transport over [net].
    Every send bumps the [sts.messages] (labeled [page=true|false]) and
    [sts.bytes] counters of [metrics] (a private registry when
    omitted), and the credit pool is mirrored in the
    [sts.buffers_reserved] gauge (summed over nodes).  With
    [config.reliability] enabled, [sts.retransmits], [sts.timeouts] and
    [sts.duplicates_dropped] counters appear too.  These series are the
    only store of {!messages}, {!page_messages}, {!retransmits} and
    {!duplicates_dropped}.  [trace] receives one [Note] event per
    retransmission, expired timer, suppressed duplicate and dead
    letter. *)
val create :
  ?metrics:Asvm_obs.Metrics.Registry.t ->
  ?trace:Asvm_obs.Trace.t ->
  Asvm_mesh.Network.t ->
  config ->
  'msg t

(** Install the per-node message handler. Must be called once per node
    before any [send] targets it. *)
val register : 'msg t -> node:int -> ('msg -> unit) -> unit

(** [send t ~src ~dst ~carries_page msg] delivers [msg] to [dst]'s
    handler after transport costs; [carries_page] adds the 8 KB page
    payload, and is the protocol's own function of [msg].  Counted once
    as a logical message regardless of how often the reliability layer
    retransmits it.
    @raise Protocol_violation if [dst] has no registered handler.
    @raise Protocol_violation if [carries_page] and no buffer is
    reserved at [dst] (flow-control violation: pages only flow on
    behalf of a request). *)
val send : 'msg t -> src:int -> dst:int -> carries_page:bool -> 'msg -> unit

(** [acquire_buffer t ~node k] reserves a preallocated page receive
    buffer at [node] for a request whose answer carries page contents,
    then runs [k].  When a credit is free, [k] runs at once; otherwise
    it waits, in FIFO order, for the next credit released at [node].
    Does nothing when [node] is down. *)
val acquire_buffer : 'msg t -> node:int -> (unit -> unit) -> unit

(** Reserve a buffer at [node] without waiting.  Returns [false] when
    the pool is exhausted. *)
val reserve_buffer : 'msg t -> node:int -> bool

(** Return a previously reserved buffer at [node] once the page has been
    consumed.  When requests wait at [node], the credit passes to the
    oldest of them instead of returning to the pool: its continuation
    runs as a fresh engine event at the current time, never inside the
    caller, and not at all if [node] crashes first.
    @raise Protocol_violation on over-release. *)
val release_buffer : 'msg t -> node:int -> unit

(** Currently reserved buffers at [node] (for invariant checks). *)
val buffers_reserved : 'msg t -> node:int -> int

(** {1 Crash and rejoin (see [docs/AVAILABILITY.md])}

    The transport consults the mesh's liveness registry
    ({!Asvm_mesh.Network.is_down} / [incarnation]) on both the send and
    the delivery path.  A dead sender's messages vanish silently; a
    message whose endpoint died while it was in flight (or is known
    dead at send time) is diverted to the {e dead-letter} hook instead
    of being delivered, exactly once per logical message when
    reliability is on. *)

(** Salvage hook for undeliverable messages.  [src_dead] / [dst_dead]
    say which endpoint's crash killed the message (both can hold).  The
    hook runs as a fresh engine event, never reentering the sender's
    call stack. *)
type 'msg dead_letter =
  src:int -> dst:int -> src_dead:bool -> dst_dead:bool -> 'msg -> unit

val set_on_dead_letter : 'msg t -> 'msg dead_letter option -> unit

(** Tear down the node's per-transport state at a crash: zero its
    receive-buffer credit pool (compensating the
    [sts.buffers_reserved] gauge), drop the requests waiting for a
    credit, including one a release has already handed a credit to,
    and quietly disarm every retransmission timer for messages it sent
    or was to receive.  The caller must already have marked the node
    down in the mesh registry. *)
val crash_node : 'msg t -> node:int -> unit

(** Logical messages sent (excluding acks and retransmissions). *)
val messages : 'msg t -> int

val page_messages : 'msg t -> int

(** Messages retransmitted by the reliability layer so far (0 when
    reliability is off). *)
val retransmits : 'msg t -> int

(** Duplicate deliveries suppressed by the reliability layer so far. *)
val duplicates_dropped : 'msg t -> int
