(** Measurement collection: tallies, counters and (x, y) series.

    These are the simulator's internal bookkeeping primitives; the
    user-facing export path is the labeled registry of
    [Asvm_obs.Metrics]. *)

(** Moments of a sample set, as computed by {!Tally.summary}. *)
type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  stddev : float;
  total : float;
}

(** One-line rendering: count, mean, bounds, standard deviation. *)
val pp_summary : Format.formatter -> summary -> unit

(** Streaming tally of float samples (Welford's algorithm). *)
module Tally : sig
  type t

  val create : unit -> t

  (** Fold one sample into the running moments. *)
  val add : t -> float -> unit

  val count : t -> int

  (** 0 when empty. *)
  val mean : t -> float

  val total : t -> float

  (** All moments at once. *)
  val summary : t -> summary
end

(** Named integer counters. *)
module Counters : sig
  type t

  val create : unit -> t

  (** Add [by] (default 1); the counter springs into existence at 0. *)
  val incr : ?by:int -> t -> string -> unit

  (** 0 for a name never incremented. *)
  val get : t -> string -> int

  (** All counters, sorted by name. *)
  val to_list : t -> (string * int) list

  (** Counters holding the given counts (a repeated name sums). *)
  val of_list : (string * int) list -> t
end

(** An (x, y) series, e.g. latency as a function of reader count. *)
module Series : sig
  type t

  (** A named, empty series. *)
  val create : string -> t

  val name : t -> string

  (** Append one point. *)
  val add : t -> x:float -> y:float -> unit

  (** Points in insertion order. *)
  val points : t -> (float * float) list

  (** Least-squares linear fit [(intercept, slope)] — used to extract the
      paper's [lb + n * la] model from Figure 11 data.
      @raise Invalid_argument on fewer than two points. *)
  val linear_fit : t -> float * float
end
