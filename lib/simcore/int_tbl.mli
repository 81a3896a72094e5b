(** Hash tables keyed by [int] (object ids, task ids, page numbers).

    Unlike the polymorphic [Hashtbl], lookups compare keys as machine
    integers and hash them inline, folding high bits into low ones so
    that a key set with a power-of-two stride spreads over the buckets.
    Iteration order is as deterministic as [Hashtbl]'s but not the
    same. *)

include Hashtbl.S with type key = int
