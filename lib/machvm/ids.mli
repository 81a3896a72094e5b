(** Cluster-wide identifiers.

    Memory objects have a single global identity; each node holds its own
    representation of an object under that id. Task ids are also global
    so traces stay unambiguous. *)

type obj_id = int
type task_id = int

(** Monotonic id allocator shared across a cluster. *)
module Alloc : sig
  type t

  val create : unit -> t
  val fresh : t -> int
end
