(** Physical map: the per-task translation from virtual pages to the
    frames that back them, with the hardware protection installed.

    Entries may point to a frame belonging to a *different* object than
    the one mapped at the address — read faults satisfied through a
    shadow link enter the source object's page directly (paper 2.2). *)

type translation = { backing_obj : Ids.obj_id; index : int; mutable prot : Prot.t }

type t

val create : unit -> t

val enter : t -> vpage:int -> backing_obj:Ids.obj_id -> index:int -> prot:Prot.t -> unit
val lookup : t -> vpage:int -> translation option
val remove : t -> vpage:int -> unit

(** All virtual pages currently translated (for invariant checks). *)
val vpages : t -> int list
