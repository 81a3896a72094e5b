(** Modeled contents of one 8 KB virtual-memory page, stored
    copy-on-write.

    Pages carry a configurable number of 63-bit words instead of 8192
    raw bytes: enough to express real data (file bytes, EM3D cell
    values, coherence stamps) while keeping a 64-node simulation in
    memory.

    A [t] is a handle onto a shared, refcounted buffer. {!copy} (alias
    {!snapshot}) is O(1): it bumps the refcount and shares the buffer;
    the word copy is deferred until a {!set} hits a shared buffer.
    Observable behaviour is exactly that of an eager deep copy — a
    snapshot is immutable under later writes to its source, and writes
    to a snapshot never reach the source — so aliasing a page across
    two simulated nodes still cannot break the coherence invariants the
    test suite checks. All-zero fresh pages ({!zero}) alias a single
    interned zero page per word size (the paper's [fresh] static hint:
    no payload needed), and {!checksum} is memoized per buffer write
    generation, so repeated audits of quiescent pages are cache hits.

    Sharing accounting is domain-local (see {!stats}); handles must not
    be mutated concurrently from two domains, which the parallel runner
    already guarantees by building every cell inside its own domain. *)

type t

(** Fresh zero-filled page, aliasing the interned zero page for this
    word size. @raise Invalid_argument if [words <= 0]. *)
val zero : words:int -> t

val words : t -> int
val get : t -> int -> int

(** Write one word. If the underlying buffer is shared (or is the
    interned zero page), it is first materialized: the deferred O(words)
    copy happens here, exactly once per shared-buffer write burst. *)
val set : t -> int -> int -> unit

(** O(1) snapshot (page transfer / push / copy-on-write): shares the
    buffer and defers the word copy to the first [set] on either side. *)
val copy : t -> t

(** [snapshot] is [copy] under its honest name. *)
val snapshot : t -> t

val equal : t -> t -> bool
val is_zero : t -> bool

(** Order-sensitive checksum, used by tests and the chaos invariant
    checker to compare page images. Memoized on the buffer and
    invalidated by {!set}, so auditing an unchanged page is O(1). *)
val checksum : t -> int

(** Cumulative page-store accounting for the calling domain, feeding
    the [contents.*] registry counters (see docs/OBSERVABILITY.md). *)
type stats = {
  snapshots : int;  (** O(1) {!copy}/{!snapshot} operations *)
  cow_materializations : int;
      (** deferred word copies actually performed by {!set} *)
  checksum_cache_hits : int;  (** {!checksum} calls served from the memo *)
}

val stats : unit -> stats
