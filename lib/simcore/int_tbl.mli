(** Hash tables keyed by [int] (object ids, task ids, page numbers).

    A copy of [Stdlib.Hashtbl]'s chained table with the key type fixed
    to [int]: the hash ([x + (x lsr 3) + (x lsr 7) + (x lsr 14)], which
    spreads a key set with a power-of-two stride over the buckets) and
    the key test are inline integer code, not closure calls.  Buckets,
    growth and iteration order are those of [Hashtbl.Make] with the same
    hash, and the operations below behave as theirs do: [add] shadows an
    existing binding, [replace] does not, and a table grown during
    [iter] or [fold] leaves that traversal's order intact. *)

type 'a t

(** [create n]: an empty table with at least [n] buckets (at least 16). *)
val create : int -> 'a t

val length : 'a t -> int
val add : 'a t -> int -> 'a -> unit
val replace : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
val find_opt : 'a t -> int -> 'a option

(** [find t k] is [k]'s binding; it raises [Not_found] if there is none.
    Unlike [find_opt] it allocates nothing. *)
val find : 'a t -> int -> 'a
val mem : 'a t -> int -> bool

(** Remove every binding, keeping the current bucket array. *)
val clear : 'a t -> unit

(** Remove every binding and shrink back to the size given to [create]. *)
val reset : 'a t -> unit

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** Bucket statistics, as [Hashtbl.stats] reports them. *)
val stats : 'a t -> Hashtbl.statistics
