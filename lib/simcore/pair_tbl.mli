(** Hash tables keyed by [int * int] pairs such as [(obj, page)] or
    [(node, obj)].

    Keys are compared as machine integers rather than by the polymorphic
    structural compare; they hash with [Hashtbl.hash], so iteration order
    is the polymorphic [Hashtbl]'s. *)

include Hashtbl.S with type key = int * int
