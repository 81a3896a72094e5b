(** Hash tables keyed by [int] (object ids, task ids, page numbers).

    Unlike the polymorphic [Hashtbl], lookups compare keys as machine
    integers and hash them inline.  Iteration order is as deterministic
    as [Hashtbl]'s but not the same. *)

include Hashtbl.S with type key = int
