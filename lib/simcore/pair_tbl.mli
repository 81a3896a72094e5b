(** Hash tables keyed by pairs of [int]s such as [(obj, page)] or
    [(node, obj)], passed as two arguments.

    A copy of [Stdlib.Hashtbl]'s chained table that stores both key
    halves in the bucket cell, so a lookup builds no key tuple.  It
    hashes a key to exactly [Hashtbl.hash (a, b)], computed inline, so
    buckets, growth and iteration order are those of [Hashtbl.Make]
    over [int * int] with [Hashtbl.hash]; the operations behave as
    theirs do ([add] shadows, [replace] does not, a table grown during
    [iter] or [fold] leaves that traversal's order intact). *)

type 'a t

(** [create n]: an empty table with at least [n] buckets (at least 16). *)
val create : int -> 'a t

val length : 'a t -> int
val add : 'a t -> int -> int -> 'a -> unit
val replace : 'a t -> int -> int -> 'a -> unit
val remove : 'a t -> int -> int -> unit
val find_opt : 'a t -> int -> int -> 'a option
val mem : 'a t -> int -> int -> bool

(** Remove every binding and shrink back to the size given to [create]. *)
val reset : 'a t -> unit

(** A table with the same bindings, iterating in the same order. *)
val copy : 'a t -> 'a t

val iter : (int -> int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** [hash a b] equals [Hashtbl.hash (a, b)]. *)
val hash : int -> int -> int
