(** Priority queue of timestamped events.

    Events are ordered by time; ties are broken by the insertion sequence
    number so that runs are fully deterministic.  Adding and popping
    allocate nothing once the queue has grown to its working size: the
    heap keeps times, seqs and closures in parallel arrays. *)

type t

(** An empty queue. *)
val create : unit -> t

(** No events queued. *)
val is_empty : t -> bool

(** Number of events queued. *)
val size : t -> int

(** [add q ~time ~seq k] inserts event [k] firing at [time]. *)
val add : t -> time:float -> seq:int -> (unit -> unit) -> unit

(** [due q until] — the earliest queued event fires at or before
    [until] (false when [q] is empty). *)
val due : t -> float -> bool

(** Remove and return the earliest event as [(time, seq, k)]. *)
val pop : t -> (float * int * (unit -> unit)) option

(** Reusable destination for {!pop_into}: lets the event loop drain the
    queue without allocating an option + tuple per event. *)
type slot = {
  mutable s_time : float;
  mutable s_seq : int;
  mutable s_run : unit -> unit;
}

(** A fresh slot (time 0, no-op closure). *)
val slot : unit -> slot

(** [pop_into q s] removes the earliest event into [s] and returns
    [true], or returns [false] leaving [s] untouched when the queue is
    empty. Equivalent to {!pop} but allocation-free. *)
val pop_into : t -> slot -> bool
