(** Bounded cache of per-page hints.

    Backs both the dynamic ownership-hint cache and the static ownership
    manager's table (paper section 3.4, figure 6). Capacity-bounded with
    least-recently-used replacement, so forwarding information can be
    lost — which is exactly why ASVM stacks dynamic, static and global
    forwarding as fallbacks of one another. *)

type 'a t

(** [create ~capacity]. A capacity of 0 makes every lookup miss. *)
val create : capacity:int -> 'a t

val size : 'a t -> int

val put : 'a t -> page:int -> 'a -> unit
val find : 'a t -> page:int -> 'a option
val remove : 'a t -> page:int -> unit
