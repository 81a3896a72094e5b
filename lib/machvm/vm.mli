(** The per-node Mach virtual memory system.

    One [Vm.t] models the kernel VM of one node: memory objects with
    shadow/copy chains, task address maps, the physical map, the resident
    page cache with FIFO eviction, and the kernel half of the EMMI
    protocol (including the ASVM extensions).

    All faulting is asynchronous: [touch], [read_word] and [write_word]
    complete through continuations scheduled on the engine, and faults
    that need a manager park until [data_supply] / [lock_request] wakes
    them — there is no thread to block, mirroring ASVM's "asynchronous
    state transitions" design rule. *)

type t

val create :
  engine:Asvm_simcore.Engine.t ->
  node:int ->
  config:Vm_config.t ->
  backing:Backing.t ->
  ids:Ids.Alloc.t ->
  t

val engine : t -> Asvm_simcore.Engine.t
val node : t -> int
val config : t -> Vm_config.t

(** {1 Objects} *)

(** Create an object representation on this node. [id] must be fresh on
    this node (use the shared allocator for cluster-unique ids). *)
val create_object :
  t -> id:Ids.obj_id -> size_pages:int -> temporary:bool -> Vm_object.t

val find_object : t -> Ids.obj_id -> Vm_object.t option

(** @raise Failure if the object is unknown on this node. *)
val get_object : t -> Ids.obj_id -> Vm_object.t

val set_manager : t -> Ids.obj_id -> Emmi.manager option -> unit

(** Make an asymmetric (delayed) copy of [src]: allocates the copy
    object, splices it at the head of [src]'s copy chain, bumps [src]'s
    version counter and write-protects local translations of [src] so
    the next write faults and pushes (paper 2.2 / 3.7). *)
val make_asymmetric_copy : t -> src:Ids.obj_id -> Vm_object.t

(** Downgrade every resident frame of the object to read-only access and
    remove write permission from local translations. Used on all sharing
    nodes when a copy of a distributed object is created. *)
val lock_object_readonly : t -> Ids.obj_id -> unit

(** Remove [copy] from [src]'s kernel copy chain (re-linking any older
    copies to [src]). Used when a node-local copy object becomes shared
    across nodes: from then on its pushes are coordinated by ASVM's
    push-scan machinery instead of the local [Lock_push_first] path.
    The older copy that read through [copy] first takes every resident
    page of [copy] it lacks, and this node's translations into the
    frames of [src] and [copy] are dropped (see DESIGN.md, delayed
    copy).  A page of [copy] swapped out to the default pager is not
    handed over. *)
val unsplice_copy : t -> src:Ids.obj_id -> copy:Ids.obj_id -> unit

(** {1 Tasks and mappings} *)

val create_task : t -> Ids.task_id

val map :
  t ->
  task:Ids.task_id ->
  obj:Ids.obj_id ->
  start:int ->
  npages:int ->
  obj_offset:int ->
  inherit_:Address_map.inheritance ->
  Address_map.entry

val entries : t -> task:Ids.task_id -> Address_map.entry list

(** Flag an entry for symmetric copy: the next write through it shadows
    the object first. Write permission is removed from the range's
    translations. *)
val mark_needs_copy : t -> task:Ids.task_id -> start:int -> unit

(** Remove the mapping whose entry begins at [start]; its translations
    are torn down. Accesses to the range fault as unmapped afterwards. *)
val unmap : t -> task:Ids.task_id -> start:int -> unit

(** vm_protect: cap the access the task can gain through the entry at
    [start]. Existing translations are downgraded; faults wanting more
    than [max_prot] raise [Failure] (protection violation). *)
val protect : t -> task:Ids.task_id -> start:int -> max_prot:Prot.t -> unit

(** Tear down a node-local (unmanaged) object: all frames, translations
    and backing-store pages are released.
    @raise Invalid_argument if the object is managed. *)
val terminate_object : t -> Ids.obj_id -> unit

(** Object page backing a virtual page, per the address map (no fault). *)
val translate_vpage : t -> task:Ids.task_id -> vpage:int -> (Ids.obj_id * int) option

(** {1 Access (fault) interface} *)

(** [touch t ~task ~vpage ~want k] ensures the task can access the page
    with [want] access, faulting as needed, then runs [k].
    @raise Invalid_argument if [want] is [No_access].
    @raise Failure on an unmapped address. *)
val touch : t -> task:Ids.task_id -> vpage:int -> want:Prot.t -> (unit -> unit) -> unit

(** Copy of the whole page image backing [vpage], if a translation is
    installed (use after [touch]). *)
val page_contents : t -> task:Ids.task_id -> vpage:int -> Contents.t option

(** Mark the frame backing (obj, page) dirty — used when ownership of a
    modified page is transferred without resending contents. *)
val set_frame_dirty : t -> obj:Ids.obj_id -> page:int -> unit

(** Word-granular accessors layered on [touch]; [addr] is
    [vpage * words_per_page + word]. *)
val read_word : t -> task:Ids.task_id -> addr:int -> (int -> unit) -> unit

val write_word : t -> task:Ids.task_id -> addr:int -> value:int -> (unit -> unit) -> unit

(** {1 Kernel EMMI entry points (called by managers)} *)

val data_supply :
  t ->
  obj:Ids.obj_id ->
  page:int ->
  contents:Contents.t ->
  lock:Prot.t ->
  mode:Emmi.supply_mode ->
  unit

(** Lower (or raise) the kernel's access to a page.  A grant of write
    access to a page no longer resident wakes the faults parked on it,
    which then fault it in afresh. *)
val lock_request :
  t ->
  obj:Ids.obj_id ->
  page:int ->
  op:Emmi.lock_op ->
  reply:(Emmi.lock_result -> unit) ->
  unit

val pull_request :
  t -> obj:Ids.obj_id -> page:int -> reply:(Emmi.pull_result -> unit) -> unit

(** {1 Residency and paging} *)

val is_resident : t -> obj:Ids.obj_id -> page:int -> bool
val frame_access : t -> obj:Ids.obj_id -> page:int -> Prot.t option

(** Copy of the frame contents of (obj, page), if resident. *)
val frame_contents : t -> obj:Ids.obj_id -> page:int -> Contents.t option
val frame_dirty : t -> obj:Ids.obj_id -> page:int -> bool

(** Checksum of the resident frame, without taking a snapshot. The
    result is memoized on the frame's buffer ({!Contents.checksum}),
    so auditing a page that has not been written since the last audit
    is O(1) — the chaos invariant checker's fast path. *)
val frame_checksum : t -> obj:Ids.obj_id -> page:int -> int option

val resident_total : t -> int
val free_pages : t -> int

(** Accept a page transferred by internode paging.  When a parked
    fault on this node is waiting for exactly this page, a full cache
    triggers one synchronous eviction ({!evict_one}) to make room —
    the fault completes here instead of failing over to a pager
    round-trip.  Placement traffic (no fault waiting) is still refused
    when memory is full, so machine-wide pressure converges on the
    pager rather than circulating pages between full nodes. *)
val try_accept_page :
  t ->
  obj:Ids.obj_id ->
  page:int ->
  contents:Contents.t ->
  dirty:bool ->
  access:Prot.t ->
  bool

(** Pin / unpin a frame against eviction (in-flight protocol state). *)
val wire : t -> obj:Ids.obj_id -> page:int -> unit

val unwire : t -> obj:Ids.obj_id -> page:int -> unit

(** Force eviction of one page if any unwired frame exists (tests and
    the pageout daemon). Returns [false] when nothing can be evicted. *)
val evict_one : t -> bool

(** {1 Crash and rejoin (see [docs/AVAILABILITY.md])} *)

(** Model a whole-node crash: drop every resident frame, hardware
    translation, eviction-queue entry and swap record.  Address-space
    structure (tasks, address maps, object representations) survives —
    the restarted-application idealization — as do fault continuations
    parked on manager replies, which {!redrive_pending} restarts at
    rejoin.  The caller (the cluster layer) is responsible for the
    transport and manager side of the crash. *)
val crash_reset : t -> unit

(** Restart every fault that was parked on a manager reply: each waiter
    re-faults from scratch through a fresh manager request.  Called at
    rejoin, after the transports accept the node again. *)
val redrive_pending : t -> unit

(** The (object, page) keys of those parked faults, sorted — the
    recovery layer marks them as recovering so rejoin latency can be
    measured per fault. *)
val pending_pages : t -> (Ids.obj_id * int) list

(** How many pages have faults parked on a manager reply — on a
    quiescent live node, 0; counted without allocating. *)
val pending_faults : t -> int

(** {1 Statistics} *)

val faults : t -> int

(** Faults resolved without any manager involvement. *)
val local_faults : t -> int

(** Pages evicted from the resident cache, by any path (capacity
    backstop, pageout daemon, explicit {!evict_one}). *)
val evictions : t -> int

(** Completed scans of the watermark pageout daemon
    ({!Vm_config.with_pageout}): a scan runs [pageout_scan_delay_ms]
    after an allocation leaves at most [pageout_low_pages] free, and
    evicts until [pageout_high_pages] are free.  At most one scan is
    ever armed; the daemon never re-arms itself, so a fully wired node
    cannot livelock — the next allocation wakes it again. *)
val pageout_runs : t -> int

(** Pages evicted by daemon scans (a subset of {!evictions}). *)
val pageout_evictions : t -> int
