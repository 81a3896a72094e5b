(** Per-message accounting shared by the protocol engines.

    One meter per engine owns everything the engine reports about its
    messages and faults, under the engine's [proto] prefix:
    - the counter series [<proto>.msgs{class,group,contents}] and, for
      rows in the ["transfer"] group,
      [<proto>.msgs.ownership_transfer{msg,contents}] — each resolved
      to its handle on first use, so a snapshot only carries series
      with traffic and the send path pays an array load afterwards;
    - the {!Trace.Msg} event of every message, when a trace is
      attached;
    - the histograms [<proto>.fault_ms{kind=read|ownership}] and
      [<proto>.recovery_ms], created with the meter.

    The engine keeps what is its own: a fixed table of [(class, group)]
    rows, the function that maps a message to its row, and the object
    and page a message concerns.  Whether a message carries a page is
    the engine's function of the message too; the meter only turns it
    into the [contents] label ([none], [local] for a loopback hop,
    [wire]) and the traced size.  Counting a message allocates
    nothing. *)

type 'msg t

val create :
  Metrics.Registry.t ->
  ?trace:Trace.t ->
  clock:(unit -> float) ->
  proto:string ->
  header_bytes:int ->
  rows:(string * string) array ->
  row_of:('msg -> int) ->
  subject_of:('msg -> int * int) ->
  unit ->
  'msg t
(** [rows] are the [(class, group)] pairs [row_of] indexes.
    [subject_of] names a message's [(obj, page)] for its trace event
    ([page = -1] for an object-wide message).  [clock] (simulated ms)
    and [header_bytes] are read only for trace events. *)

val message : 'msg t -> src:int -> dst:int -> carries_page:bool -> 'msg -> unit
(** Count one message from [src] to [dst] and emit its trace event. *)

val fault : 'msg t -> ownership:bool -> float -> unit
(** Sample one completed fault's latency (ms) into
    [<proto>.fault_ms{kind=ownership}] or [{kind=read}]. *)

val recovery : 'msg t -> float -> unit
(** Sample one fault's crash-recovery latency (ms) into
    [<proto>.recovery_ms]. *)
