(* ASVM's state (owner entries, object instances, the engine) and the
   helpers every mechanism shares. *)

include Asvm_msg

(* Owner-side state for one page. Its existence in [i_pages] means this
   node owns the page; state is created/destroyed with ownership, so the
   memory footprint is tied to residency (design rule 2). *)
type pstate = {
  mutable p_readers : int list;
  mutable p_version : int;  (** pushes complete up to this object version *)
  mutable p_busy : bool;
  mutable p_pushing : bool;
  mutable p_active : request option;
      (** the fault currently being served ([p_busy]); queued requests
          live in [p_queue], but the one in service is reachable nowhere
          else — crash recovery re-drives it from its origin *)
  p_queue : request Queue.t;
  p_retries : request Queue.t;  (** pulls held during a push (3.7.3) *)
  mutable p_acks : int;  (** outstanding invalidation acks *)
  mutable p_ack_k : unit -> unit;
}

(* A dirty pageout in flight to the pager (between [A_pager_grant] and
   [A_to_pager]): the evicting node, and the pager lookups for the page
   waiting for its contents, newest first. *)
type pageout = { mutable evictor : int; mutable waiting : request list }

type push_op = {
  mutable o_outstanding : int;
  mutable o_need_nodes : int list;
  mutable o_need_copies : (Ids.obj_id * int) list;  (** (copy, peer) *)
  mutable o_contents : Contents.t option;  (** frozen contents for phase 2 *)
  mutable o_k : unit -> unit;
}

type inst = {
  i_node : int;
  i_obj : Ids.obj_id;
  i_size : int;
  i_sharers : int array;
  i_fwd : forwarding;
  i_pagers : Store_pager.t array;
      (** the object's pager tasks; page p is served by pager (p mod n) —
          round-robin striping, the paper's section 6 proposal *)
  i_shadow : (Ids.obj_id * int) option;
  mutable i_version : int;
  mutable i_copies : (Ids.obj_id * int) list;
  i_pages : pstate Int_tbl.t;
  i_dyn : int Hint_cache.t;
  i_static : (shint * int) Hint_cache.t;  (** with each entry's [seq] *)
  i_seen : Bytes.t;  (** static-manager role: page ever had an owner *)
  mutable i_pageout_counter : int;
  mutable i_last_acceptor : int option;
  i_push_ops : push_op Int_tbl.t;
  (* continuations waiting for a boolean answer (reader query, transfer
     offer), keyed by page *)
  i_answers : (bool -> unit) Int_tbl.t;
  (* pages this node has its own fault request in flight for (value =
     time the fault fired, feeding the latency histogram, and the fault
     generation — bumped by crash-recovery re-drives); foreign requests
     arriving meanwhile park here until ownership lands *)
  i_outstanding : (float * int) Int_tbl.t;
  mutable i_next_gen : int;
  i_waiting_inbound : request Queue.t Int_tbl.t;
  (* answers this node owes for delivered-but-not-yet-answered messages
     (invalidations, push locks: anything whose reply waits on an async
     kernel call or a receive-buffer credit).  If the node crashes
     inside that window, recovery synthesizes each owed answer at its
     destination so the waiting peer is not stranded.
     Keyed by owe order ([i_owe_seq] numbers them): settling one is a
     table removal, and recovery answers newest first *)
  i_owed_acks : (int * msg) Int_tbl.t;
  mutable i_owe_seq : int;
  (* pager-node role: page -> (node, fault generation) the pager last
     granted the page to; serializes simultaneous cold faults on one
     page (single-owner) *)
  i_granted : (int * int) Int_tbl.t;
  (* pager-node role: page -> the pageout whose dirty contents are still
     in flight.  A lookup for such a page waits in the window until it
     closes: supplying from the store inside it would hand out the stale
     pre-eviction image — and the pageout's arrival would then wipe the
     grant-table entry, letting a later lookup mint a second owner. *)
  i_pageouts : pageout Int_tbl.t;
  (* owner role: bumped at every read grant, invalidation round and
     reader query, so a reader can order them (the [stamp] fields) *)
  mutable i_stamp : int;
  (* reader role: page -> (owner, stamp) of the latest invalidation or
     declined reader query that reached this node while its own fault
     for the page was in flight.  A read grant the same owner sent
     before it (lower stamp) and that arrives after it was revoked on
     the wire: installing it would leave a copy no reader list covers. *)
  i_revoked : (int * int) Int_tbl.t;
  mutable i_copy_acks : int;
  mutable i_copy_k : unit -> unit;
}

type t = {
  sts : msg Sts.t;
  net : Network.t;
  vms : Vm.t array;
  wpp : int;
  config : config;
  insts : inst Pair_tbl.t;  (* (node, obj) -> instance *)
  counts : Metrics.Counter.t array;  (* one per [count_rows] entry *)
  meter : msg Msg_meter.t;
  trace : Trace.t option;
  (* (node, obj, page) -> time a crash put this fault into recovery
     (dead-letter re-drive or rejoin re-drive); completion of the fresh
     fault samples the asvm.recovery_ms histogram *)
  recovering : (int * Ids.obj_id * int, float) Hashtbl.t;
  mutable updates : int;  (* static-table updates made so far *)
}

let now t = Engine.now (Vm.engine t.vms.(0))

let sts_messages t = Sts.messages t.sts
let sts_retransmits t = Sts.retransmits t.sts
let buffers_reserved t ~node = Sts.buffers_reserved t.sts ~node

let inst t node obj =
  match Pair_tbl.find_opt t.insts node obj with
  | Some i -> i
  | None ->
    failwith (Printf.sprintf "Asvm: no instance of obj#%d on node %d" obj node)

(* Every protocol event the engine counts, one registry series each
   (see docs/OBSERVABILITY.md): the name [counters] shows it under,
   then the series.  The [c_*] constants index this table. *)
let count_rows =
  let fwd m = ("asvm.forwarding", [ ("mechanism", m) ]) in
  let copy op = ("asvm.copy", [ ("op", op) ]) in
  let pageout step = ("asvm.pageout", [ ("step", step) ]) in
  let crash event = ("asvm.crash", [ ("event", event) ]) in
  [|
    ("forward.dynamic", fwd "dynamic");
    ("forward.to_static", fwd "to_static");
    ("forward.static_hit", fwd "static_hit");
    ("forward.fresh_hint", fwd "fresh_hint");
    ("forward.paged_hint", fwd "paged_hint");
    ("forward.global_sweeps", fwd "global_sweep");
    ("ownership_transfers", ("asvm.ownership_transfers", []));
    ("invalidations", ("asvm.invalidations", []));
    ("zero_grants", ("asvm.zero_grants", []));
    ("pager.supplies", ("asvm.pager_supplies", []));
    ("pushes", copy "push");
    ("push_scans", copy "push_scan");
    ("copy.pulls", copy "pull");
    ("copy.retries", copy "retry");
    ("pageout.reader_handoffs", pageout "reader_handoff");
    ("pageout.internode", pageout "internode");
    ("pageout.to_pager", pageout "to_pager");
    ("crash.reelections", crash "reelection");
    ("crash.redrives", crash "redrive");
    ("crash.salvaged", crash "salvaged");
    ("crash.rescued_pages", crash "rescued_page");
    ("crash.stale_requests", crash "stale_request");
    ("crash.stale_replies", crash "stale_reply");
    ("crash.lost_grants", crash "lost_grant");
    ("crash.lost_pages", crash "lost_page");
    ("revoked_reads", ("asvm.revoked_reads", []));
  |]

let c_dynamic = 0
let c_to_static = 1
let c_static_hit = 2
let c_fresh_hint = 3
let c_paged_hint = 4
let c_global_sweep = 5
let c_ownership_transfer = 6
let c_invalidation = 7
let c_zero_grant = 8
let c_pager_supply = 9
let c_push = 10
let c_push_scan = 11
let c_pull = 12
let c_copy_retry = 13
let c_reader_handoff = 14
let c_internode_pageout = 15
let c_pageout_to_pager = 16
let c_reelection = 17
let c_redrive = 18
let c_salvaged = 19
let c_rescued_page = 20
let c_stale_request = 21
let c_stale_reply = 22
let c_lost_grant = 23
let c_lost_page = 24
let c_revoked_read = 25

let count ?by t c = Metrics.Counter.incr ?by t.counts.(c)

let counters t =
  Array.to_list count_rows
  |> List.mapi (fun c (name, _) -> (name, Metrics.Counter.value t.counts.(c)))
  |> List.filter (fun (_, n) -> n > 0)
  |> Stats.Counters.of_list

let send t ~src ~dst msg =
  let carries_page = carries_page msg in
  Msg_meter.message t.meter ~src ~dst ~carries_page msg;
  Sts.send t.sts ~src ~dst ~carries_page msg

(* [owner] became the page's owner (emitted at the owner). *)
let trace_ownership t ~obj ~page ~owner =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr ~time:(now t) ~node:owner (Trace.Ownership { obj; page; owner })

(* A routing decision about one request (parked, swept, re-asked after
   a revoked read, dropped as stale) as a trace note; [reason], when
   given, ends the detail.  Parking is common under load, so an
   untraced run skips even consuming the format's arguments. *)
let note_request ?(reason = "") t ~node ~category req =
  if Option.is_some t.trace then
    Trace.note t.trace ~time:(now t) ~node ~category
      "obj=%d page=%d origin=%d gen=%d%s" req.r_obj req.r_page req.r_origin
      req.r_gen
      (if reason = "" then "" else " reason=" ^ reason)

let static_mgr i page = i.i_sharers.(page mod Array.length i.i_sharers)

(* [node] crashed and is up again as a later incarnation than [inc]. *)
let rejoined t node inc =
  (not (Network.is_down t.net node)) && Network.incarnation t.net node <> inc

(* The static hint for a page [node] owns. *)
let owned_by t node =
  S_at { owner = node; inc = Network.incarnation t.net node; gen = -1 }

(* the pager responsible for a page: round-robin across the object's
   pager tasks (one pager for ordinary objects; several for striped
   files, paper section 6) *)
let pager_of i page = i.i_pagers.(page mod Array.length i.i_pagers)

let sharer_index i node =
  let found = ref (-1) in
  Array.iteri (fun idx n -> if n = node then found := idx) i.i_sharers;
  !found

(* The global forwarding ring, made crash-aware: the walk from [node]
   skips nodes that are currently down (their owner state died with
   them) and reports [None] when it would pass [stop] — the sweep's
   starting point, which may itself have crashed meanwhile, so
   termination cannot rely on reaching it. *)
let ring_next t i ~node ~stop =
  let n = Array.length i.i_sharers in
  let idx = sharer_index i node in
  let start = if idx < 0 then 0 else (idx + 1) mod n in
  let stop_idx = sharer_index i stop in
  let rec pick k =
    if k >= n then None
    else
      let j = (start + k) mod n in
      if stop_idx >= 0 && j = stop_idx then None
      else
        let c = i.i_sharers.(j) in
        if Network.is_down t.net c || c = node then pick (k + 1) else Some c
  in
  pick 0

let zero t = Contents.zero ~words:t.wpp

let add_reader ps node =
  if not (List.mem node ps.p_readers) then ps.p_readers <- node :: ps.p_readers

let new_pstate ~version =
  {
    p_readers = [];
    p_version = version;
    p_busy = false;
    p_pushing = false;
    p_active = None;
    p_queue = Queue.create ();
    p_retries = Queue.create ();
    p_acks = 0;
    p_ack_k = ignore;
  }

(* A plain lock request: lower the kernel's access to [page]. *)
let lock_plain vm ~obj ~page access ~reply =
  Vm.lock_request vm ~obj ~page
    ~op:{ Emmi.max_access = access; clean = false; mode = Emmi.Lock_plain }
    ~reply

(* ------------------------------------------------------------------ *)
(* Hint maintenance                                                   *)
(* ------------------------------------------------------------------ *)

(* [i] is the page's static manager: record [hint], the [seq]-th update
   made, unless the table holds a later one.  The reliable transport
   retransmits without ordering, so an update can arrive after one made
   after it, and would then name a node the page has left (DESIGN.md,
   section 7). *)
let record_static i ~page ~seq hint =
  match Hint_cache.find i.i_static ~page with
  | Some (_, held) when held > seq -> ()
  | Some _ | None ->
    Hint_cache.put i.i_static ~page (hint, seq);
    Bytes.set i.i_seen page '\001'

(* The next update number.  Each update is made at the ownership
   change it reports, and the changes of one page form a single causal
   chain, so the numbers follow that chain: they stand in for a
   per-page epoch carried with ownership. *)
let next_seq t =
  t.updates <- t.updates + 1;
  t.updates

let update_static t i ~page ~hint =
  (* record at the page's static ownership manager *)
  let seq = next_seq t in
  let sm = static_mgr i page in
  if sm = i.i_node then record_static i ~page ~seq hint
  else
    send t ~src:i.i_node ~dst:sm
      (A_owner_update { obj = i.i_obj; page; hint; seq })

(* This node receives ownership of [page], whichever way it comes: it
   forgets its dynamic hint, which named an owner from before this one,
   so hints only ever name later owners (DESIGN.md, section 7), traces
   the change, and records itself at the static manager unless
   [static_updated]: the supplier already did (the [updated] flag of a
   reply; the paper's three-message transfer relies on exactly one
   update), or crash recovery sets the hint itself. *)
let become_owner t node i ~page ~static_updated ps =
  Int_tbl.replace i.i_pages page ps;
  Hint_cache.remove i.i_dyn ~page;
  trace_ownership t ~obj:i.i_obj ~page ~owner:node;
  if not static_updated then update_static t i ~page ~hint:(owned_by t node)

(* Crash staleness: a request whose origin crashed answers a fault that
   died with the node — drop it wherever it is next routed.  A
   crash-recovery re-drive bumps the origin's fault generation, which
   equally invalidates the superseded request.  Consulting the origin's
   table from a remote hop is a simulator shortcut standing in for the
   cancellation round a real recovery protocol would run. *)
let request_stale t req =
  (not (Network.current t.net req.r_origin req.r_origin_inc))
  || (req.r_kind = K_fault
     &&
     match Pair_tbl.find_opt t.insts req.r_origin req.r_origin_obj with
     | None -> true
     | Some oi -> (
       match Int_tbl.find_opt oi.i_outstanding req.r_page with
       | Some (_, g) -> g <> req.r_gen
       | None -> true))

let drop_stale t node req =
  count t c_stale_request;
  note_request t ~node ~category:"asvm.stale_drop" req

(* A fresh fault request from [node] for a page of [obj]. *)
let fault_request t ~node ~obj ~page ~want ~upgrade ~gen =
  {
    r_origin = node;
    r_origin_obj = obj;
    r_obj = obj;
    r_page = page;
    r_want = want;
    r_upgrade = upgrade;
    r_scan_home = obj;
    r_ring = -1;
    r_directed = -1;
    r_kind = K_fault;
    r_origin_inc = Network.incarnation t.net node;
    r_gen = gen;
  }

(* Owe [dst] the answer [msg] while its real sending waits on an async
   kernel call or a receive-buffer credit: if the node crashes inside
   that window, recovery synthesizes [msg] at [dst] so the waiting peer
   is not stranded.  The returned continuation settles the debt and
   runs [k] only while the node is still the incarnation that took it
   on. *)
let owe t node i ~dst msg k =
  let seq = i.i_owe_seq in
  i.i_owe_seq <- seq + 1;
  Int_tbl.add i.i_owed_acks seq (dst, msg);
  let inc = Network.incarnation t.net node in
  fun result ->
    if Network.current t.net node inc then begin
      Int_tbl.remove i.i_owed_acks seq;
      k result
    end

(* The answers [i] still owes, newest first. *)
let owed_newest_first i =
  Int_tbl.fold (fun seq owed acc -> (seq, owed) :: acc) i.i_owed_acks []
  |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
  |> List.map snd

(* Return [page] to the object's pager and run [k] once it has left.
   A clean page goes as a bare notice; a dirty one carries contents, so
   the pager node first reserves a receive buffer (pages only ever flow
   on behalf of their receiver). *)
let to_pager t node i ~page ~contents ~dirty k =
  let pnode = Store_pager.node (pager_of i page) in
  if not dirty then begin
    send t ~src:node ~dst:pnode (A_to_pager { obj = i.i_obj; page; contents = None });
    k ()
  end
  else begin
    Int_tbl.replace i.i_answers page (fun _granted ->
        send t ~src:node ~dst:pnode
          (A_to_pager { obj = i.i_obj; page; contents = Some contents });
        k ());
    send t ~src:node ~dst:pnode (A_pager_offer { obj = i.i_obj; page; from = node })
  end

let make_inst t ~node ~obj ~size_pages ~sharers ~pagers ~fwd ~shadow =
  {
    i_node = node;
    i_obj = obj;
    i_size = size_pages;
    i_sharers = Array.of_list sharers;
    i_fwd = fwd;
    i_pagers = pagers;
    i_shadow = shadow;
    i_version = 0;
    i_copies = [];
    i_pages = Int_tbl.create 32;
    i_dyn = Hint_cache.create ~capacity:t.config.dynamic_cache_pages;
    i_static = Hint_cache.create ~capacity:t.config.static_cache_pages;
    i_seen = Bytes.make size_pages '\000';
    i_pageout_counter = 0;
    i_last_acceptor = None;
    i_push_ops = Int_tbl.create 8;
    i_answers = Int_tbl.create 8;
    i_outstanding = Int_tbl.create 8;
    i_next_gen = 0;
    i_waiting_inbound = Int_tbl.create 8;
    i_owed_acks = Int_tbl.create 8;
    i_owe_seq = 0;
    i_granted = Int_tbl.create 8;
    i_pageouts = Int_tbl.create 8;
    i_stamp = 0;
    i_revoked = Int_tbl.create 8;
    i_copy_acks = 0;
    i_copy_k = ignore;
  }
