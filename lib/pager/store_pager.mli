(** A user-level pager task: the data authority behind memory objects.

    One instance plays both roles the paper needs:
    - the {e default pager} backing anonymous memory (paging space), and
    - a {e file pager} for memory-mapped files (preloaded page images).

    The pager runs on one node. Its CPU is a FIFO station, so a pager
    asked to supply pages for the whole machine serializes — that is the
    ceiling in the paper's Table 2. Writes to the store are write-through
    to disk; a memory-resident image of stored pages means supplies cost
    only service time (a paging-space read from a cold disk would apply
    only after a pager restart, which we do not model). *)

type config = {
  supply_ms : float;  (** CPU time to serve one page request *)
  store_ms : float;  (** CPU time to accept one page return *)
  file_read_ms : float;
      (** extra media time for a cold (disk-resident) file page; paid
          once, after which the page is served from the pager's memory *)
}

val default_config : config

type t

val create :
  Asvm_simcore.Engine.t -> node:int -> disk:Disk.t -> config -> t

val node : t -> int
val disk : t -> Disk.t

(** Preload a page image (file pager contents); the page starts
    disk-resident, so its first supply pays [file_read_ms]. *)
val preload :
  t -> obj:Asvm_machvm.Ids.obj_id -> page:int -> Asvm_machvm.Contents.t -> unit

(** Record a page image in the pager's memory cache without any cost
    (used when a coherent copy passes through the pager anyway). *)
val remember :
  t ->
  obj:Asvm_machvm.Ids.obj_id ->
  page:int ->
  contents:Asvm_machvm.Contents.t ->
  unit

(** Does the store hold a coherent copy of the page? *)
val has : t -> obj:Asvm_machvm.Ids.obj_id -> page:int -> bool

(** [request t ~obj ~page ~words k] supplies page contents after pager
    service time: stored data if present, a zero-filled page otherwise. *)
val request :
  t ->
  obj:Asvm_machvm.Ids.obj_id ->
  page:int ->
  words:int ->
  (Asvm_machvm.Contents.t -> unit) ->
  unit

(** [clean t ~obj ~page ~contents k] makes the page coherent at the
    pager: the contents are written through to the paging disk. This is
    the operation whose first-time cost dominates the XMM rows of
    Table 1. *)
val clean :
  t ->
  obj:Asvm_machvm.Ids.obj_id ->
  page:int ->
  contents:Asvm_machvm.Contents.t ->
  (unit -> unit) ->
  unit

(** Fire-and-forget page return (eviction step 4 / async file write). *)
val store_async :
  t ->
  obj:Asvm_machvm.Ids.obj_id ->
  page:int ->
  contents:Asvm_machvm.Contents.t ->
  unit

(** View this pager as the kernel's anonymous-memory backing store. *)
val as_backing : t -> Asvm_machvm.Backing.t

(** Pages supplied so far. *)
val supplies : t -> int

(** Pages returned into the store by the eviction path ({!store_async}
    and the kernel backing-store interface) — the pageout-daemon /
    eviction write-back traffic, excluding coherence {!clean}s. *)
val stores : t -> int
