(** A task's address map: ordered, non-overlapping ranges of virtual
    pages, each backed by a window of a memory object.

    Addresses are virtual page numbers; word-level addressing is layered
    on top by [Vm]. *)

type inheritance = Inherit_none | Inherit_share | Inherit_copy

type entry = {
  start : int;  (** first virtual page *)
  npages : int;
  mutable obj : Ids.obj_id;
  mutable obj_offset : int;  (** object page backing [start] *)
  mutable inherit_ : inheritance;
  mutable needs_copy : bool;
      (** symmetric-copy flag: a write through this entry must first
          shadow the object *)
  mutable max_prot : Prot.t;
      (** vm_protect ceiling; faults above it are protection violations *)
}

type t

val create : unit -> t

(** [map t ~start ~npages ~obj ~obj_offset ~inherit_] inserts a mapping.
    @raise Invalid_argument if the range overlaps an existing entry or
    [npages <= 0]. *)
val map :
  t ->
  start:int ->
  npages:int ->
  obj:Ids.obj_id ->
  obj_offset:int ->
  inherit_:inheritance ->
  entry

val unmap : t -> start:int -> unit

(** Entry covering a virtual page, if any. *)
val lookup : t -> vpage:int -> entry option

val entries : t -> entry list

(** First free range of [npages] at or after [hint]. *)
val find_space : t -> hint:int -> npages:int -> int
