(** Structured protocol traces.

    Events carry a stable variant type ({!kind}) so tools can filter
    and diff traces without parsing display strings.  A trace always
    keeps a bounded in-memory ring of the most recent events;
    optionally it also streams every event to a JSONL sink (one JSON
    object per line) as it is emitted.

    Tracing is optional by design: protocol code holds a [t option] and
    builds an event only under [Some _], so a run without a trace
    builds no events ({!note} does that match itself). *)

(** One protocol message on (or within) a node.

    [proto] is the protocol that sent it (["asvm"], ["xmm"]); [cls] is
    the message class (e.g. ["request"], ["reply"], ["lock"]); [group]
    buckets classes into the paper's accounting categories
    (["transfer"], ["invalidation"], ["pageout"], ["copy"],
    ["pager"]).  [obj] and [page] name the page the message concerns
    ([page = -1] for a message about the whole object, such as a copy
    announcement).  [carries_page] is true when page contents ride
    along; [src = dst] marks a local (loopback) hop.  [bytes] is the
    on-wire size. *)
type msg = {
  proto : string;
  cls : string;
  group : string;
  obj : int;
  page : int;
  src : int;
  dst : int;
  carries_page : bool;
  bytes : int;
}

type kind =
  | Msg of msg
  | Ownership of { obj : int; page : int; owner : int }
      (** [owner] became the owner of [page] of object [obj]. *)
  | Note of { category : string; detail : string }
      (** Events without a dedicated constructor: protocol decisions
          such as parking a request, and transport incidents. *)

type event = { time : float; node : int; kind : kind }
(** [time] is simulated milliseconds; [node] is where the event
    happened (for [Msg], the sender). *)

type t

val create : ?capacity:int -> unit -> t
(** A trace retaining the last [capacity] (default 4096) events in
    memory. *)

val set_jsonl : t -> out_channel option -> unit
(** Attach (or detach) a JSONL sink.  Every subsequently emitted event
    is written to the channel as one JSON line and flushed. *)

val emit : t -> time:float -> node:int -> kind -> unit
(** Record an event. *)

val note :
  t option ->
  time:float ->
  node:int ->
  category:string ->
  ('a, unit, string, unit) format4 ->
  'a
(** [note tr ~time ~node ~category fmt args...] records a [Note] whose
    detail is [fmt] applied to [args].  With [tr = None] the detail is
    never formatted and no event is built, though [args] are still
    consumed (a few words of allocation): a path taken per message
    should test for a trace first. *)

val events : t -> event list
(** Retained events, oldest first (at most [capacity]). *)

val emitted : t -> int
(** Total events emitted over the trace's lifetime, including those
    evicted from the ring. *)

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result

val pp_event : Format.formatter -> event -> unit
(** One-line human-readable rendering. *)

val dump : Format.formatter -> t -> unit
(** Print all retained events, oldest first. *)
