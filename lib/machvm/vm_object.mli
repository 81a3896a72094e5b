(** Per-node representation of a Mach memory object.

    The same object id may be represented on several nodes; each node's
    representation caches resident pages and carries the local ends of
    shadow/copy links. Links are object ids resolved through the owning
    node's [Vm] table, so representations never alias structures across
    nodes. *)

(** One resident page. [access] is the access right this node's kernel
    holds for the page — always [Read_write] for unmanaged objects, and
    whatever the manager granted for managed ones. [wired] frames are
    skipped by eviction (in-flight pushes and transfers). *)
type frame = {
  mutable contents : Contents.t;
  mutable dirty : bool;
  mutable access : Prot.t;
  mutable wired : bool;
}

type t = {
  id : Ids.obj_id;
  size_pages : int;
  temporary : bool;  (** anonymous memory: zero-fill, default-pager backed *)
  mutable shadow : (Ids.obj_id * int) option;
      (** source object and page offset into it *)
  mutable copy : Ids.obj_id option;  (** head of the copy chain *)
  mutable version : int;  (** bumped each time a copy is made (3.7.2) *)
  page_versions : int Asvm_simcore.Int_tbl.t;
      (** page -> version at last push; missing = 0 *)
  mutable manager : Emmi.manager option;
  resident : frame Asvm_simcore.Int_tbl.t;
}

val create :
  id:Ids.obj_id ->
  size_pages:int ->
  temporary:bool ->
  ?shadow:Ids.obj_id * int ->
  unit ->
  t

val frame : t -> int -> frame option
val is_resident : t -> int -> bool

(** Insert a frame; replaces any previous one. @raise Invalid_argument on
    an out-of-range page. *)
val install : t -> page:int -> frame -> unit

val remove : t -> page:int -> unit
val resident_pages : t -> int list

(** [pages_marked ~size f] calls [f mark] and returns the pages in
    [0, size) that [f] passed to [mark], ascending, each once.  It costs
    a byte per page, no sort: audits use it to visit only the pages some
    table names. *)
val pages_marked : size:int -> ((int -> unit) -> unit) -> int list

val page_version : t -> int -> int
val set_page_version : t -> int -> int -> unit

(** [needs_push t page] — the page has not been pushed since the last
    copy was made (page version lags the object version). Meaningless
    when [copy = None]. *)
val needs_push : t -> int -> bool

val has_manager : t -> bool
