module Engine = Asvm_simcore.Engine
module Stats = Asvm_simcore.Stats
module Int_tbl = Asvm_simcore.Int_tbl
module Pair_tbl = Asvm_simcore.Pair_tbl
module Network = Asvm_mesh.Network
module Sts = Asvm_sts.Sts
module Vm = Asvm_machvm.Vm
module Prot = Asvm_machvm.Prot
module Contents = Asvm_machvm.Contents
module Emmi = Asvm_machvm.Emmi
module Ids = Asvm_machvm.Ids
module Store_pager = Asvm_pager.Store_pager
module Metrics = Asvm_obs.Metrics
module Trace = Asvm_obs.Trace

type forwarding = { dynamic : bool; static : bool }

let all_forwarding = { dynamic = true; static = true }

type config = {
  sts : Sts.config;
  dynamic_cache_pages : int;
  static_cache_pages : int;
  forwarding : forwarding;
  internode_paging : bool;
}

let default_config =
  {
    sts = Sts.default_config;
    dynamic_cache_pages = 256;
    static_cache_pages = 4096;
    forwarding = all_forwarding;
    internode_paging = true;
  }

(* Static-manager hints (paper figure 6): besides a node reference, the
   cache can record that a page was never initialized (fresh) or has
   been paged out (paged).  A node reference also names the fault
   generation at [owner] that the hint designates as the page's next
   owner ([-1] once that node owns the page, or when no particular
   fault is meant): a request the manager forwards on it may park only
   behind that exact fault (see [route_request]). *)
type shint = S_at of { owner : int; gen : int } | S_fresh | S_paged

type rkind = K_fault | K_pull | K_push_scan

type request = {
  r_origin : int;  (** faulting node *)
  r_origin_obj : Ids.obj_id;  (** object the answer is supplied into *)
  mutable r_obj : Ids.obj_id;  (** object currently being searched *)
  r_page : int;
  r_want : Prot.t;
  r_upgrade : bool;
  r_scan_home : Ids.obj_id;  (** for push scans: source object waiting *)
  mutable r_hops : int;
  mutable r_ring : int;  (** -1 = not sweeping; else the sweep's start node *)
  mutable r_directed : int;
      (** the fault generation at the receiving node that a designating
          authority (static-manager table, pager grant table, or an
          owner handing on its queue) named as the page's next owner;
          the receiver parks the request only behind that fault.  [-1]
          = not directed, set by every other forwarding hop;
          [by_table] = handed to the static manager by a faulting
          node. *)
  r_kind : rkind;
  r_origin_inc : int;
      (** the origin's crash incarnation when the request was issued: a
          request outlives its origin's crash only as garbage, dropped
          at its next routing hop (see [docs/AVAILABILITY.md]) *)
  r_gen : int;
      (** fault generation at the origin, echoed back in the reply.  A
          crash-recovery re-drive bumps the generation so answers to the
          superseded request are discarded instead of double-consuming
          the origin's receive-buffer reservation.  [-1] = not
          generation-checked (push scans, local-upgrade requests and
          kernel retries, which never re-drive). *)
}

type msg =
  | A_request of request
  | A_pager_lookup of request
  | A_pull of request
  | A_reply of {
      origin_obj : Ids.obj_id;
      page : int;
      contents : Contents.t option;  (** [None] = zero fill *)
      grant : Prot.t;
      owner : bool;
      readers : int list;
      version : int;
      dirty : bool;
      from : int;
      updated : bool;
          (** the supplier already told the static manager the origin is
              the new owner, so the origin must not repeat the update —
              this is what keeps a remote ownership transfer at the
              paper's three messages *)
      gen : int;  (** echo of the request's [r_gen] *)
      stamp : int;
          (** a read grant's place in its owner's [i_stamp] order (0 on
              other replies), so the reader can tell whether an
              invalidation or reader query from the same owner that
              overtook it on the wire revoked this very copy *)
    }
  | A_grant of {
      obj : Ids.obj_id;
      page : int;
      version : int;
      from : int;
      gen : int;
    }
  | A_invalidate of {
      obj : Ids.obj_id;
      page : int;
      new_owner : int;
      from : int;
      stamp : int;  (** the sender's [i_stamp] when it revoked *)
    }
  | A_inval_ack of { obj : Ids.obj_id; page : int }
  | A_owner_update of { obj : Ids.obj_id; page : int; hint : shint }
  | A_reader_query of {
      obj : Ids.obj_id;
      page : int;
      from : int;
      dirty : bool;
      rest : int list;
      version : int;
      stamp : int;  (** the sender's [i_stamp] when it asked *)
    }
  | A_reader_answer of { obj : Ids.obj_id; page : int; from : int; accepted : bool }
  | A_transfer_offer of { obj : Ids.obj_id; page : int; from : int }
  | A_transfer_answer of { obj : Ids.obj_id; page : int; from : int; accepted : bool }
  | A_transfer_page of {
      obj : Ids.obj_id;
      page : int;
      contents : Contents.t;
      dirty : bool;
      version : int;
    }
  | A_pager_offer of { obj : Ids.obj_id; page : int; from : int }
  | A_pager_grant of { obj : Ids.obj_id; page : int }
  | A_to_pager of { obj : Ids.obj_id; page : int; contents : Contents.t option }
  | A_copy_made of {
      obj : Ids.obj_id;
      peer : int;
      shared : Ids.obj_id option;
      new_version : int;
      from : int;
    }
  | A_copy_shared of {
      obj : Ids.obj_id;
      copy : Ids.obj_id;
      peer : int;
      from : int;
    }
  | A_copy_ack of { obj : Ids.obj_id }
  | A_push_lock of { obj : Ids.obj_id; page : int; from : int }
  | A_push_lock_done of {
      obj : Ids.obj_id;
      page : int;
      from : int;
      needs_contents : bool;
    }
  | A_push_contents of {
      obj : Ids.obj_id;
      page : int;
      contents : Contents.t;
      from : int;
    }
  | A_push_ack of { home : Ids.obj_id; page : int }
  | A_push_prepare of {
      copy : Ids.obj_id;
      home : Ids.obj_id;
      page : int;
      from : int;
    }
  | A_push_ready of { copy : Ids.obj_id; home : Ids.obj_id; page : int }
  | A_push_to_copy of {
      copy : Ids.obj_id;
      home : Ids.obj_id;
      page : int;
      contents : Contents.t;
      from : int;
    }
  | A_scan_answer of {
      home : Ids.obj_id;
      page : int;
      copy : Ids.obj_id;
      found : bool;
    }
  | A_retry of {
      origin_obj : Ids.obj_id;
      page : int;
      want : Prot.t;
      upgrade : bool;
    }

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
  i_static : shint Hint_cache.t;
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
     (invalidations, push locks, pager offers: anything whose reply
     waits on an async kernel call or a receive-buffer credit).  If the
     node crashes inside that window, recovery synthesizes each owed
     answer at its destination so the waiting peer is not stranded. *)
  mutable i_owed_acks : (int * msg) list;
  (* pager-node role: page -> (node, fault generation) the pager last
     granted the page to; serializes simultaneous cold faults on one
     page (single-owner) *)
  i_granted : (int * int) Int_tbl.t;
  (* pager-node role: page -> evicting node whose dirty contents are
     still in flight (between [A_pager_grant] and [A_to_pager]).  A
     lookup for such a page must wait for the contents: supplying from
     the store inside the window would hand out the stale pre-eviction
     image — and the pageout's arrival would then wipe the grant-table
     entry, letting a later lookup mint a second owner. *)
  i_pageouts : int Int_tbl.t;
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

(* Metric handles (see docs/PERFORMANCE.md): the registry's string+label
   hashtable lookup is too slow for the per-message send path, so every
   series the protocol can bump is resolved to its Counter.t/Histogram.t
   handle ahead of the hot path.  Fixed-cardinality series resolve
   eagerly at [create]; the (class, group, contents) cross product of
   [asvm.msgs] resolves each cell on first use (so snapshots only carry
   series with actual traffic) and is an array load afterwards. *)
type handles = {
  hm_msgs : Metrics.Counter.t option array;
      (* asvm.msgs{class,group,contents}: row * 3 + contents index *)
  hm_ot : Metrics.Counter.t option array;
      (* asvm.msgs.ownership_transfer{msg,contents}, transfer rows only *)
  hm_counts : Metrics.Counter.t array;  (* one per [count_rows] entry *)
  hm_fault_read : Metrics.Histogram.t;
  hm_fault_ownership : Metrics.Histogram.t;
  hm_recovery : Metrics.Histogram.t;  (* asvm.recovery_ms *)
}

type t = {
  sts : msg Sts.t;
  net : Network.t;
  vms : Vm.t array;
  wpp : int;
  config : config;
  insts : inst Pair_tbl.t;  (* (node, obj) -> instance *)
  metrics : Metrics.Registry.t;
  handles : handles;
  trace : Trace.t option;
  (* (node, obj, page) -> time a crash put this fault into recovery
     (dead-letter re-drive or rejoin re-drive); completion of the fresh
     fault samples the asvm.recovery_ms histogram *)
  recovering : (int * Ids.obj_id * int, float) Hashtbl.t;
}

let now t = Engine.now (Vm.engine t.vms.(0))

let sts_messages t = Sts.messages t.sts
let sts_page_messages t = Sts.page_messages t.sts
let sts_retransmits t = Sts.retransmits t.sts
let buffers_reserved t ~node = Sts.buffers_reserved t.sts ~node

let inst t node obj =
  match Pair_tbl.find_opt t.insts (node, obj) with
  | Some i -> i
  | None ->
    failwith (Printf.sprintf "Asvm: no instance of obj#%d on node %d" obj node)

(* The object and page a message concerns, for its trace event: the
   instance that handles it at the receiver; page -1 for the
   object-wide copy announcements. *)
let subject_of_msg = function
  | A_request r | A_pager_lookup r | A_pull r -> (r.r_obj, r.r_page)
  | A_reply { origin_obj = obj; page; _ } | A_retry { origin_obj = obj; page; _ }
  | A_grant { obj; page; _ } | A_invalidate { obj; page; _ }
  | A_inval_ack { obj; page } | A_owner_update { obj; page; _ }
  | A_reader_query { obj; page; _ } | A_reader_answer { obj; page; _ }
  | A_transfer_offer { obj; page; _ } | A_transfer_answer { obj; page; _ }
  | A_transfer_page { obj; page; _ } | A_pager_offer { obj; page; _ }
  | A_pager_grant { obj; page } | A_to_pager { obj; page; _ }
  | A_push_lock { obj; page; _ } | A_push_lock_done { obj; page; _ }
  | A_push_contents { obj; page; _ } | A_push_ack { home = obj; page }
  | A_push_prepare { copy = obj; page; _ } | A_push_ready { home = obj; page; _ }
  | A_push_to_copy { copy = obj; page; _ }
  | A_scan_answer { home = obj; page; _ } ->
    (obj, page)
  | A_copy_made { obj; _ } | A_copy_shared { obj; _ } | A_copy_ack { obj } ->
    (obj, -1)

(* Message class for the metrics registry and the trace.  Classes and
   accounting groups live in one fixed row table so the send path can
   resolve a message's metric series by integer index instead of
   rebuilding a label list per message. *)

(* Bucket each message class into the accounting groups the paper's
   message-count claims are stated in (Table 1 and section 3):
   - "transfer": the ownership/access-transfer core — request, reply,
     grant, and the owner-change notice to the static manager;
   - "invalidation": flushing read copies before a write grant;
   - "pager": backing-store traffic (lookups and page-out stores);
   - "pageout": the four-step eviction negotiation (3.6);
   - "copy": delayed-copy machinery — pushes, pulls, scans (3.7).
   A request's group follows its kind: a pull or push-scan walking the
   shadow chain is copy machinery, not an ownership transfer. *)
let msg_rows =
  [|
    ("request", "transfer");  (* 0: A_request, K_fault *)
    ("request", "copy");  (* 1: A_request, K_pull / K_push_scan *)
    ("pager_lookup", "pager");
    ("pull", "copy");
    ("reply", "transfer");
    ("grant", "transfer");
    ("invalidate", "invalidation");
    ("inval_ack", "invalidation");
    ("owner_update", "transfer");
    ("reader_query", "pageout");
    ("reader_answer", "pageout");
    ("transfer_offer", "pageout");
    ("transfer_answer", "pageout");
    ("transfer_page", "pageout");
    ("pager_offer", "pager");
    ("pager_grant", "pager");
    ("to_pager", "pager");
    ("copy_made", "copy");
    ("copy_shared", "copy");
    ("copy_ack", "copy");
    ("push_lock", "copy");
    ("push_lock_done", "copy");
    ("push_contents", "copy");
    ("push_ack", "copy");
    ("push_prepare", "copy");
    ("push_ready", "copy");
    ("push_to_copy", "copy");
    ("scan_answer", "copy");
    ("retry", "copy");
  |]

let row_of_msg = function
  | A_request { r_kind = K_fault; _ } -> 0
  | A_request _ -> 1
  | A_pager_lookup _ -> 2
  | A_pull _ -> 3
  | A_reply _ -> 4
  | A_grant _ -> 5
  | A_invalidate _ -> 6
  | A_inval_ack _ -> 7
  | A_owner_update _ -> 8
  | A_reader_query _ -> 9
  | A_reader_answer _ -> 10
  | A_transfer_offer _ -> 11
  | A_transfer_answer _ -> 12
  | A_transfer_page _ -> 13
  | A_pager_offer _ -> 14
  | A_pager_grant _ -> 15
  | A_to_pager _ -> 16
  | A_copy_made _ -> 17
  | A_copy_shared _ -> 18
  | A_copy_ack _ -> 19
  | A_push_lock _ -> 20
  | A_push_lock_done _ -> 21
  | A_push_contents _ -> 22
  | A_push_ack _ -> 23
  | A_push_prepare _ -> 24
  | A_push_ready _ -> 25
  | A_push_to_copy _ -> 26
  | A_scan_answer _ -> 27
  | A_retry _ -> 28

let row_is_transfer = Array.map (fun (_, g) -> g = "transfer") msg_rows

(* "contents" follows the paper's accounting: a message counts as
   carrying contents only when a page actually crosses the wire *)
let contents_labels = [| "none"; "local"; "wire" |]

(* Every protocol event the engine counts, one registry series each
   (see docs/OBSERVABILITY.md): the name [counters] shows it under,
   then the series.  The [c_*] constants index this table. *)
let count_rows =
  let fwd m = ("asvm.forwarding", [ ("mechanism", m) ]) in
  let copy op = ("asvm.copy", [ ("op", op) ]) in
  let pageout step = ("asvm.pageout", [ ("step", step) ]) in
  let crash event = ("asvm.crash", [ ("event", event) ]) in
  [|
    ("forward.loop_breaks", fwd "loop_break");
    ("forward.dynamic", fwd "dynamic");
    ("forward.to_static", fwd "to_static");
    ("forward.static_hit", fwd "static_hit");
    ("forward.fresh_hint", fwd "fresh_hint");
    ("forward.paged_hint", fwd "paged_hint");
    ("forward.global_sweeps", fwd "global_sweep");
    ("forward.escalations", fwd "escalation");
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

let c_loop_break = 0
let c_dynamic = 1
let c_to_static = 2
let c_static_hit = 3
let c_fresh_hint = 4
let c_paged_hint = 5
let c_global_sweep = 6
let c_escalation = 7
let c_ownership_transfer = 8
let c_invalidation = 9
let c_zero_grant = 10
let c_pager_supply = 11
let c_push = 12
let c_push_scan = 13
let c_pull = 14
let c_copy_retry = 15
let c_reader_handoff = 16
let c_internode_pageout = 17
let c_pageout_to_pager = 18
let c_reelection = 19
let c_redrive = 20
let c_salvaged = 21
let c_rescued_page = 22
let c_stale_request = 23
let c_stale_reply = 24
let c_lost_grant = 25
let c_lost_page = 26
let c_revoked_read = 27

let make_handles metrics =
  {
    hm_msgs = Array.make (Array.length msg_rows * 3) None;
    hm_ot = Array.make (Array.length msg_rows * 3) None;
    hm_counts =
      Array.map
        (fun (_, (name, labels)) -> Metrics.Registry.counter metrics name ~labels)
        count_rows;
    hm_fault_read =
      Metrics.Registry.histogram metrics "asvm.fault_ms"
        ~labels:[ ("kind", "read") ];
    hm_fault_ownership =
      Metrics.Registry.histogram metrics "asvm.fault_ms"
        ~labels:[ ("kind", "ownership") ];
    hm_recovery = Metrics.Registry.histogram metrics "asvm.recovery_ms";
  }

let count ?by t c = Metrics.Counter.incr ?by t.handles.hm_counts.(c)

let counters t =
  Array.to_list count_rows
  |> List.mapi (fun c (name, _) ->
         (name, Metrics.Counter.value t.handles.hm_counts.(c)))
  |> List.filter (fun (_, n) -> n > 0)
  |> Stats.Counters.of_list

let msgs_counter t row ci =
  let idx = (row * 3) + ci in
  match t.handles.hm_msgs.(idx) with
  | Some c -> c
  | None ->
    let cls, group = msg_rows.(row) in
    let c =
      Metrics.Registry.counter t.metrics "asvm.msgs"
        ~labels:
          [ ("class", cls); ("group", group);
            ("contents", contents_labels.(ci)) ]
    in
    t.handles.hm_msgs.(idx) <- Some c;
    c

let ot_counter t row ci =
  let idx = (row * 3) + ci in
  match t.handles.hm_ot.(idx) with
  | Some c -> c
  | None ->
    let cls, _ = msg_rows.(row) in
    let c =
      Metrics.Registry.counter t.metrics "asvm.msgs.ownership_transfer"
        ~labels:[ ("msg", cls); ("contents", contents_labels.(ci)) ]
    in
    t.handles.hm_ot.(idx) <- Some c;
    c

let page_bytes = 8192

let send t ~src ~dst ?carries_page msg =
  let with_page = carries_page = Some true in
  let row = row_of_msg msg in
  let ci = if not with_page then 0 else if src = dst then 1 else 2 in
  Metrics.Counter.incr (msgs_counter t row ci);
  if row_is_transfer.(row) then Metrics.Counter.incr (ot_counter t row ci);
  (match t.trace with
  | None -> ()
  | Some tr ->
    let cls, group = msg_rows.(row) in
    let obj, page = subject_of_msg msg in
    Trace.emit tr ~time:(now t) ~node:src
      (Trace.Msg
         {
           proto = "asvm";
           cls;
           group;
           obj;
           page;
           src;
           dst;
           carries_page = with_page;
           bytes =
             (t.config.sts.Sts.header_bytes
             + if with_page then page_bytes else 0);
         }));
  Sts.send t.sts ~src ~dst ?carries_page msg

(* [owner] became the page's owner (emitted at the owner). *)
let trace_ownership t ~obj ~page ~owner =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr ~time:(now t) ~node:owner (Trace.Ownership { obj; page; owner })

(* A routing decision about one request (parked, escalated at the
   pager, re-asked after a revoked read, dropped as stale) as a trace
   note.  Parking is common under load, so an untraced run skips even
   consuming the format's arguments. *)
let note_request t ~node ~category req =
  if Option.is_some t.trace then
    Trace.note t.trace ~time:(now t) ~node ~category
      "obj=%d page=%d origin=%d gen=%d" req.r_obj req.r_page req.r_origin
      req.r_gen

let static_mgr i page = i.i_sharers.(page mod Array.length i.i_sharers)

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

(* ------------------------------------------------------------------ *)
(* Hint maintenance                                                   *)
(* ------------------------------------------------------------------ *)

let update_static t i ~page ~hint =
  (* record at the page's static ownership manager *)
  let sm = static_mgr i page in
  if sm = i.i_node then begin
    Hint_cache.put i.i_static ~page hint;
    Bytes.set i.i_seen page '\001'
  end
  else send t ~src:i.i_node ~dst:sm (A_owner_update { obj = i.i_obj; page; hint })

(* ------------------------------------------------------------------ *)
(* Request forwarding (the redirector, paper 3.3/3.4)                 *)
(* ------------------------------------------------------------------ *)

(* Crash staleness: a request whose origin crashed answers a fault that
   died with the node — drop it wherever it is next routed.  A
   crash-recovery re-drive bumps the origin's fault generation, which
   equally invalidates the superseded request.  Consulting the origin's
   table from a remote hop is a simulator shortcut standing in for the
   cancellation round a real recovery protocol would run. *)
let request_stale t req =
  Network.is_down t.net req.r_origin
  || Network.incarnation t.net req.r_origin <> req.r_origin_inc
  || (req.r_kind = K_fault && req.r_gen >= 0
     &&
     match Pair_tbl.find_opt t.insts (req.r_origin, req.r_origin_obj) with
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
    r_hops = 0;
    r_ring = -1;
    r_directed = -1;
    r_kind = K_fault;
    r_origin_inc = Network.incarnation t.net node;
    r_gen = gen;
  }

(* The generation of this node's own in-flight fault for the request's
   page when the request is a foreign fault that could wait for it; -1
   otherwise.  Sweeping requests ([r_ring >= 0]) never wait: after the
   static manager's table died in a crash every stuck faulter sweeps,
   and the sweep runs to the pager, whose grant table serializes the
   claims. *)
let parkable_gen i node req =
  if req.r_kind <> K_fault || req.r_origin = node || req.r_ring >= 0 then -1
  else
    match Int_tbl.find_opt i.i_outstanding req.r_page with
    | Some (_, gen) -> gen
    | None -> -1

(* Hold a foreign request behind this node's own in-flight fault until
   ownership lands ([drain_inbound] re-routes it).  Only a designated
   request parks (see [route_request]), which keeps the parking relation
   acyclic without a timer (DESIGN.md, section 7). *)
let park_request t node i req =
  let q =
    match Int_tbl.find_opt i.i_waiting_inbound req.r_page with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Int_tbl.add i.i_waiting_inbound req.r_page q;
      q
  in
  note_request t ~node ~category:"asvm.park" req;
  Queue.push req q

(* [r_directed] of a request a faulting non-owner hands to the page's
   static manager: the manager routes it by its table, not by its own
   dynamic hint, which can lead straight back (a stale hint cycle
   through the faulting node). *)
let by_table = -2

(* A foreign fault reaching a node that neither owns the page nor is
   told by an authority that its in-flight fault is the next owner:
   parking it here could close a cycle (this node's own request may be
   parked at the foreign origin), so it parks only when [r_directed]
   names exactly that fault.  Anything else goes to the page's static
   manager, whose table orders concurrent faulters ([by_table]); when
   this node is that manager, [consult_static] decides at once. *)
let rec route_request t node req =
  if request_stale t req then drop_stale t node req
  else
  let i = inst t node req.r_obj in
  match Int_tbl.find_opt i.i_pages req.r_page with
  | Some ps -> owner_handle t node i ps req
  | None ->
    let gen = parkable_gen i node req in
    if gen >= 0 && gen = req.r_directed then park_request t node i req
    else
      forward_request
        ~dynamic:(gen < 0 && req.r_directed <> by_table)
        t node i req

(* Every forwarding hop clears [r_directed]; only [consult_static]'s
   static hit, [pager_lookup]'s chase and [finish_owner_op] set it.
   [~dynamic:false] skips this node's dynamic hint and sends the
   request to the static manager marked [by_table]. *)
and forward_request ?(dynamic = true) t node i req =
  req.r_directed <- -1;
  req.r_hops <- req.r_hops + 1;
  if req.r_ring >= 0 then sweep_step t node i req
  else if req.r_hops > (2 * Array.length i.i_sharers) + 8 then begin
    (* stale hint loop: abandon hints, fall back to a global sweep *)
    count t c_loop_break;
    start_sweep t node i req
  end
  else begin
    let hint =
      if dynamic && i.i_fwd.dynamic then
        Hint_cache.find i.i_dyn ~page:req.r_page
      else None
    in
    match hint with
    | Some target when target <> node && not (Network.is_down t.net target) ->
      count t c_dynamic;
      (* Note: Li's hint-chain collapse ("the originator becomes the
         next owner", paper 3.2) is deliberately NOT applied here at
         forwarding nodes. With concurrent writers, speculative hints to
         not-yet-owners can form cycles in which each requester parks
         the other's request. Hints are updated only by authoritative
         events — the granting owner, invalidations, replies and the
         serialized static-manager claims — and a request that follows
         a hint is never designated, so it does not park. *)
      send t ~src:node ~dst:target (A_request req)
    | Some _ | None ->
      if i.i_fwd.static then begin
        let sm = static_mgr i req.r_page in
        if Network.is_down t.net sm then
          (* the page's static manager is down: its hint table is gone,
             only the ring sweep can find a surviving owner *)
          start_sweep t node i req
        else if sm <> node then begin
          count t c_to_static;
          if not dynamic then req.r_directed <- by_table;
          send t ~src:node ~dst:sm (A_request req)
        end
        else consult_static t node i req
      end
      else start_sweep t node i req
  end

and consult_static t node i req =
  (* When the request leaves for the pager (or is zero-granted), the
     origin is about to become the owner: record that now so that
     simultaneous requests for the same page chase the origin instead of
     each being granted an owner by the pager. *)
  let claim_for_origin () =
    if req.r_kind <> K_push_scan then begin
      Hint_cache.put i.i_static ~page:req.r_page
        (S_at { owner = req.r_origin; gen = req.r_gen });
      Bytes.set i.i_seen req.r_page '\001'
    end
  in
  match Hint_cache.find i.i_static ~page:req.r_page with
  | Some (S_at { owner = target; gen })
    when target <> node && not (Network.is_down t.net target) ->
    count t c_static_hit;
    req.r_directed <- gen;
    send t ~src:node ~dst:target (A_request req)
  | Some (S_at { owner; gen })
    when owner = node && gen >= 0 && gen = parkable_gen i node req ->
    (* the table designates this manager's own in-flight fault *)
    park_request t node i req
  | Some S_fresh ->
    count t c_fresh_hint;
    claim_for_origin ();
    conclude_fresh t node i req
  | Some S_paged ->
    count t c_paged_hint;
    claim_for_origin ();
    to_pager_lookup t node i req
  | Some (S_at _) (* stale self-reference *) | None ->
    if Bytes.get i.i_seen req.r_page = '\000' then begin
      (* the page never had an owner: only the pager (or, for a copy
         object, the shadow chain behind it) can have data *)
      claim_for_origin ();
      to_pager_lookup t node i req
    end
    else start_sweep t node i req

and to_pager_lookup t node i req =
  let pnode = Store_pager.node (pager_of i req.r_page) in
  if pnode = node then pager_lookup t node i req
  else send t ~src:node ~dst:pnode (A_pager_lookup req)

and start_sweep t node i req =
  count t c_global_sweep;
  req.r_ring <- node;
  sweep_step t node i req

and sweep_step t node i req =
  match ring_next t i ~node ~stop:req.r_ring with
  | None -> end_of_search t node i req
  | Some next -> send t ~src:node ~dst:next (A_request req)

(* The sweep (or hint path) found no owner anywhere. *)
and end_of_search t node i req =
  req.r_ring <- -1;
  to_pager_lookup t node i req

(* Executed on the pager's node. *)
and pager_lookup t node i req =
  let awaiting_pageout =
    match Int_tbl.find_opt i.i_pageouts req.r_page with
    | Some evictor when not (Network.is_down t.net evictor) -> true
    | Some _ ->
      (* the evictor died inside the window; its contents either died
         with it or dead-letter into the store — stop waiting *)
      Int_tbl.remove i.i_pageouts req.r_page;
      false
    | None -> false
  in
  if awaiting_pageout then
    (* a dirty pageout of this page is in flight to the store: wait for
       it rather than supplying the stale pre-eviction image *)
    Engine.schedule (Network.engine t.net) ~delay:0.5 (fun () ->
        if not (request_stale t req) then pager_lookup t node i req)
  else
  let chase =
    match Int_tbl.find_opt i.i_granted req.r_page with
    | Some (holder, _) as granted
      when req.r_kind <> K_push_scan && holder <> req.r_origin
           && not (Network.is_down t.net holder) ->
      if req.r_hops > 4 * (Array.length i.i_sharers + 2) then begin
        (* liveness escape: a request that has wandered this long is
           supplied even though the grant table names a live holder,
           which can mint a second owner *)
        count t c_escalation;
        note_request t ~node ~category:"asvm.escalation" req;
        None
      end
      else granted
    | Some _ | None -> None
  in
  match chase with
  | Some (holder, gen) ->
    (* the pager already handed this page to someone: chase the holder
       instead of creating a second owner.  Leave sweep mode and
       designate the fault the pager supplied — the chased request must
       be allowed to park behind exactly that in-flight fault rather
       than sweep past it forever. *)
    req.r_ring <- -1;
    req.r_directed <- gen;
    send t ~src:node ~dst:holder (A_request req)
  | None ->
  if Store_pager.has (pager_of i req.r_page) ~obj:req.r_obj ~page:req.r_page
  then begin
    match req.r_kind with
    | K_push_scan ->
      (* the copy object's page lives at the pager: push unnecessary *)
      send t ~src:node ~dst:req.r_origin
        (A_scan_answer
           { home = req.r_scan_home; page = req.r_page; copy = req.r_origin_obj; found = true })
    | K_fault | K_pull ->
      count t c_pager_supply;
      Int_tbl.replace i.i_granted req.r_page (req.r_origin, req.r_gen);
      Store_pager.request (pager_of i req.r_page) ~obj:req.r_obj ~page:req.r_page ~words:t.wpp
        (fun contents ->
          update_static t i ~page:req.r_page
            ~hint:(S_at { owner = req.r_origin; gen = req.r_gen });
          send t ~src:node ~dst:req.r_origin ~carries_page:true
            (A_reply
               {
                 origin_obj = req.r_origin_obj;
                 page = req.r_page;
                 contents = Some contents;
                 grant = req.r_want;
                 owner = true;
                 readers = [];
                 version = 0;
                 dirty = false;
                 from = node;
                 updated = true;
                 gen = req.r_gen;
                 stamp = 0;
               }))
  end
  else
    match req.r_kind with
    | K_push_scan ->
      send t ~src:node ~dst:req.r_origin
        (A_scan_answer
           { home = req.r_scan_home; page = req.r_page; copy = req.r_origin_obj; found = false })
    | K_fault | K_pull -> (
      match i.i_shadow with
      | Some (_src, peer) ->
        (* a copy object with no owner and nothing paged: walk the
           shadow chain on the peer node (figure 9); pulls continue
           stage by stage until the end of the chain *)
        count t c_pull;
        send t ~src:node ~dst:peer (A_pull req)
      | None -> conclude_fresh t node i req)

(* The page was never written anywhere: grant a zero-filled page. *)
and conclude_fresh t node i req =
  match req.r_kind with
  | K_push_scan ->
    send t ~src:node ~dst:req.r_origin
      (A_scan_answer
         { home = req.r_scan_home; page = req.r_page; copy = req.r_origin_obj; found = false })
  | K_fault | K_pull ->
    count t c_zero_grant;
    if node = Store_pager.node (pager_of i req.r_page) then
      Int_tbl.replace i.i_granted req.r_page (req.r_origin, req.r_gen);
    update_static t i ~page:req.r_page
      ~hint:(S_at { owner = req.r_origin; gen = req.r_gen });
    send t ~src:node ~dst:req.r_origin
      (A_reply
         {
           origin_obj = req.r_origin_obj;
           page = req.r_page;
           contents = None;
           grant = req.r_want;
           owner = true;
           readers = [];
           version = 0;
           dirty = false;
           from = node;
           updated = true;
           gen = req.r_gen;
           stamp = 0;
         })

(* ------------------------------------------------------------------ *)
(* Owner-side state machine (paper 3.5, figure 7)                     *)
(* ------------------------------------------------------------------ *)

and owner_handle t node i ps req =
  match req.r_kind with
  | K_push_scan ->
    (* an owner exists in the copy object: the push can be cancelled *)
    send t ~src:node ~dst:req.r_origin
      (A_scan_answer
         { home = req.r_scan_home; page = req.r_page; copy = req.r_obj; found = true })
  | K_pull ->
    if ps.p_pushing then Queue.push req ps.p_retries
    else reply_pull t node i ps req
  | K_fault ->
    if ps.p_busy then Queue.push req ps.p_queue
    else begin
      ps.p_busy <- true;
      ps.p_active <- Some req;
      Vm.wire t.vms.(node) ~obj:req.r_obj ~page:req.r_page;
      if Prot.equal req.r_want Prot.Read_write then
        owner_write_grant t node i ps req
      else owner_read_grant t node i ps req
    end

(* A pull wants the frozen snapshot value: reply contents without
   registering a reader or moving ownership. *)
and reply_pull t node _i ps req =
  ignore ps;
  match Vm.frame_contents t.vms.(node) ~obj:req.r_obj ~page:req.r_page with
  | Some contents ->
    send t ~src:node ~dst:req.r_origin ~carries_page:true
      (A_reply
         {
           origin_obj = req.r_origin_obj;
           page = req.r_page;
           contents = Some contents;
           grant = req.r_want;
           owner = true;
           readers = [];
           version = 0;
           dirty = false;
           from = node;
           updated = false;
           gen = req.r_gen;
           stamp = 0;
         })
  | None ->
    (* owner invariant violated only transiently; treat as not found *)
    forward_request t node (inst t node req.r_obj) req

(* Transition 5: the owner grants read access and enters the requester
   into its reader list. The owner's own write permission is revoked
   {e before} the contents are captured — single writer or multiple
   readers, never both. *)
and owner_read_grant t node i ps req =
  let vm = t.vms.(node) in
  Vm.lock_request vm ~obj:req.r_obj ~page:req.r_page
    ~op:{ Emmi.max_access = Prot.Read_only; clean = false; mode = Emmi.Lock_plain }
    ~reply:(fun _ ->
      match Vm.frame_contents vm ~obj:req.r_obj ~page:req.r_page with
      | None ->
        finish_owner_op t node i ps req.r_page ~moved_to:None;
        forward_request t node i req
      | Some contents ->
        add_reader ps req.r_origin;
        i.i_stamp <- i.i_stamp + 1;
        send t ~src:node ~dst:req.r_origin ~carries_page:true
          (A_reply
             {
               origin_obj = req.r_origin_obj;
               page = req.r_page;
               contents = Some contents;
               grant = Prot.Read_only;
               owner = false;
               readers = [];
               version = ps.p_version;
               dirty = false;
               from = node;
               updated = false;
               gen = req.r_gen;
               stamp = i.i_stamp;
             });
        finish_owner_op t node i ps req.r_page ~moved_to:(Some node))

(* Transitions 4/6/7: write access moves ownership to the requester,
   after pushing to copies and invalidating all read copies. *)
and owner_write_grant t node i ps req =
  let page = req.r_page in
  run_push_if_needed t node i ps page (fun () ->
      invalidate_readers t node i ps ~page ~except:req.r_origin (fun () ->
          let vm = t.vms.(node) in
          if req.r_origin = node then begin
            (* transition 7: local upgrade; ownership stays here. Every
               request holds a receive-buffer reservation at its origin
               in case it has to leave the node; a locally granted one
               never uses it. *)
            Sts.release_buffer t.sts ~node;
            Vm.lock_request vm ~obj:req.r_obj ~page
              ~op:
                {
                  Emmi.max_access = Prot.Read_write;
                  clean = false;
                  mode = Emmi.Lock_plain;
                }
              ~reply:(fun _ -> ());
            finish_owner_op t node i ps page ~moved_to:(Some node)
          end
          else
            (* revoke our own write permission before capturing the
               contents, so no local write slips past the transfer *)
            Vm.lock_request vm ~obj:req.r_obj ~page
              ~op:
                {
                  Emmi.max_access = Prot.Read_only;
                  clean = false;
                  mode = Emmi.Lock_plain;
                }
              ~reply:(fun _ ->
                count t c_ownership_transfer;
                let was_reader = List.mem req.r_origin ps.p_readers in
                if req.r_upgrade && was_reader then
                  send t ~src:node ~dst:req.r_origin
                    (A_grant
                       {
                         obj = req.r_obj;
                         page;
                         version = ps.p_version;
                         from = node;
                         gen = req.r_gen;
                       })
                else begin
                  let contents =
                    match Vm.frame_contents vm ~obj:req.r_obj ~page with
                    | Some c -> c
                    | None -> zero t
                  in
                  let dirty = Vm.frame_dirty vm ~obj:req.r_obj ~page in
                  send t ~src:node ~dst:req.r_origin ~carries_page:true
                    (A_reply
                       {
                         origin_obj = req.r_origin_obj;
                         page;
                         contents = Some contents;
                         grant = Prot.Read_write;
                         owner = true;
                         readers = [];
                         version = ps.p_version;
                         dirty;
                         from = node;
                         updated = true;
                         gen = req.r_gen;
                         stamp = 0;
                       })
                end;
                (* the old owner flushes its own copy: single writer *)
                Vm.unwire vm ~obj:req.r_obj ~page;
                Vm.lock_request vm ~obj:req.r_obj ~page
                  ~op:
                    {
                      Emmi.max_access = Prot.No_access;
                      clean = false;
                      mode = Emmi.Lock_plain;
                    }
                  ~reply:(fun _ -> ());
                Hint_cache.put i.i_dyn ~page req.r_origin;
                update_static t i ~page
                  ~hint:(S_at { owner = req.r_origin; gen = req.r_gen });
                finish_owner_op t node i ps page ~moved_to:(Some req.r_origin))))

(* Transitions 6/7 prologue: flush every node in the reader list. *)
and invalidate_readers t node i ps ~page ~except k =
  let targets = List.filter (fun r -> r <> except && r <> node) ps.p_readers in
  ps.p_readers <- [];
  match targets with
  | [] -> k ()
  | _ ->
    count t c_invalidation ~by:(List.length targets);
    ps.p_acks <- List.length targets;
    ps.p_ack_k <- k;
    i.i_stamp <- i.i_stamp + 1;
    List.iter
      (fun r ->
        send t ~src:node ~dst:r
          (A_invalidate
             {
               obj = i.i_obj;
               page;
               new_owner = except;
               from = node;
               stamp = i.i_stamp;
             }))
      targets

(* Close an owner-side operation: drain queued work to wherever the
   ownership now lives.  Requests handed on to a new owner are
   designated to the fault this operation served (the reply is already
   on its way), so they may park there until it lands. *)
and finish_owner_op t node i ps page ~moved_to =
  let vm = t.vms.(node) in
  let served =
    match (ps.p_active, moved_to) with
    | Some req, Some target when req.r_origin = target -> req.r_gen
    | _ -> -1
  in
  ps.p_active <- None;
  let still_here = moved_to = Some node in
  if still_here then begin
    ps.p_busy <- false;
    Vm.unwire vm ~obj:i.i_obj ~page;
    match Queue.take_opt ps.p_queue with
    | Some req -> route_request t node req
    | None -> ()
  end
  else begin
    Int_tbl.remove i.i_pages page;
    let forward req =
      match moved_to with
      | Some target ->
        req.r_directed <- served;
        send t ~src:node ~dst:target (A_request req)
      | None -> route_request t node req
    in
    Queue.iter forward ps.p_queue;
    Queue.clear ps.p_queue
  end;
  (* pulls held during a push: tell their origins to retry (3.7.3) *)
  Queue.iter
    (fun req ->
      send t ~src:node ~dst:req.r_origin
        (A_retry
           {
             origin_obj = req.r_origin_obj;
             page = req.r_page;
             want = req.r_want;
             upgrade = req.r_upgrade;
           }))
    ps.p_retries;
  Queue.clear ps.p_retries

(* ------------------------------------------------------------------ *)
(* Push operations (paper 3.7.2)                                      *)
(* ------------------------------------------------------------------ *)

and run_push_if_needed t node i ps page k =
  if ps.p_version >= i.i_version then k ()
  else begin
    count t c_push;
    ps.p_pushing <- true;
    let vm = t.vms.(node) in
    let contents =
      match Vm.frame_contents vm ~obj:i.i_obj ~page with
      | Some c -> c
      | None -> zero t
    in
    let targets =
      Array.to_list i.i_sharers |> List.filter (fun n -> n <> node)
    in
    let op =
      {
        o_outstanding = List.length targets + List.length i.i_copies + 1;
        o_need_nodes = [];
        o_need_copies = [];
        o_contents = Some contents;
        o_k = ignore;
      }
    in
    op.o_k <-
      (fun () ->
        push_phase_two t node i ~page ~contents op (fun () ->
            ps.p_version <- i.i_version;
            ps.p_pushing <- false;
            k ()));
    Int_tbl.replace i.i_push_ops page op;
    (* our own node's local copy chain *)
    Vm.lock_request vm ~obj:i.i_obj ~page
      ~op:{ Emmi.max_access = Prot.Read_only; clean = false; mode = Emmi.Lock_push_first }
      ~reply:(fun _ -> push_op_done i ~page);
    (* remote sharers: push down their local copy chains *)
    List.iter
      (fun target ->
        send t ~src:node ~dst:target
          (A_push_lock { obj = i.i_obj; page; from = node }))
      targets;
    (* shared copy objects: push scan through their forwarding (3.7.2) *)
    List.iter
      (fun (copy, peer) ->
        count t c_push_scan;
        let req =
          {
            r_origin = node;
            r_origin_obj = copy;
            r_obj = copy;
            r_page = page;
            r_want = Prot.Read_only;
            r_upgrade = false;
            r_scan_home = i.i_obj;
            r_hops = 0;
            r_ring = -1;
            r_directed = -1;
            r_kind = K_push_scan;
            r_origin_inc = Network.incarnation t.net node;
            r_gen = -1;
          }
        in
        send t ~src:node ~dst:peer (A_request req))
      i.i_copies
  end

and push_op_done i ~page =
  match Int_tbl.find_opt i.i_push_ops page with
  | None -> ()
  | Some op ->
    op.o_outstanding <- op.o_outstanding - 1;
    if op.o_outstanding <= 0 then begin
      Int_tbl.remove i.i_push_ops page;
      op.o_k ()
    end

(* Phase 2: deliver the frozen contents to every sharer whose local copy
   chain lacked the page, and to the peer of every shared copy object
   the scans found empty. Completion waits for all acks so write access
   is only granted once every copy holds the snapshot. *)
and push_phase_two t node i ~page ~contents op k =
  let sends = List.length op.o_need_nodes + List.length op.o_need_copies in
  if sends = 0 then k ()
  else begin
    let op2 =
      {
        o_outstanding = sends;
        o_need_nodes = [];
        o_need_copies = [];
        o_contents = Some contents;
        o_k = k;
      }
    in
    Int_tbl.replace i.i_push_ops page op2;
    List.iter
      (fun target ->
        send t ~src:node ~dst:target ~carries_page:true
          (A_push_contents { obj = i.i_obj; page; contents; from = node }))
      op.o_need_nodes;
    List.iter
      (fun (copy, peer) ->
        send t ~src:node ~dst:peer
          (A_push_prepare { copy; home = i.i_obj; page; from = node }))
      op.o_need_copies
  end

(* ------------------------------------------------------------------ *)
(* Internode paging (paper 3.6)                                       *)
(* ------------------------------------------------------------------ *)

(* The kernel evicted a page this node owns: find the state a new home
   following the four-step algorithm. *)
and handle_eviction t node i ps ~page ~contents ~dirty =
  ps.p_busy <- true;
  query_readers t node i ps ~page ~contents ~dirty ps.p_readers

(* Step 2: offer ownership to surviving readers, one after another. *)
and query_readers t node i ps ~page ~contents ~dirty readers =
  match readers with
  | r :: rest ->
    ps.p_readers <- rest;
    Int_tbl.replace i.i_answers page (fun accepted ->
        if accepted then begin
          count t c_reader_handoff;
          Hint_cache.put i.i_dyn ~page r;
          finish_owner_op t node i ps page ~moved_to:(Some r)
        end
        else query_readers t node i ps ~page ~contents ~dirty rest);
    i.i_stamp <- i.i_stamp + 1;
    send t ~src:node ~dst:r
      (A_reader_query
         {
           obj = i.i_obj;
           page;
           from = node;
           dirty;
           rest;
           version = ps.p_version;
           stamp = i.i_stamp;
         })
  | [] -> offer_transfer t node i ps ~page ~contents ~dirty

(* Step 3: transfer the page to a node with free memory, chosen by the
   adaptive cycling counter. *)
and offer_transfer t node i ps ~page ~contents ~dirty =
  if not t.config.internode_paging then
    pageout_to_pager t node i ps ~page ~contents ~dirty
  else
  let n = Array.length i.i_sharers in
  let pick () =
    i.i_pageout_counter <- i.i_pageout_counter + 1;
    let c = i.i_sharers.(i.i_pageout_counter mod n) in
    if c = node then begin
      i.i_pageout_counter <- i.i_pageout_counter + 1;
      i.i_sharers.(i.i_pageout_counter mod n)
    end
    else c
  in
  let candidate = pick () in
  let try_candidate target ~fallback =
    if target = node then fallback ()
    else begin
      Int_tbl.replace i.i_answers page (fun accepted ->
          if accepted then begin
            count t c_internode_pageout;
            i.i_last_acceptor <- Some target;
            Hint_cache.put i.i_dyn ~page target;
            send t ~src:node ~dst:target ~carries_page:true
              (A_transfer_page
                 { obj = i.i_obj; page; contents; dirty; version = ps.p_version });
            finish_owner_op t node i ps page ~moved_to:(Some target)
          end
          else fallback ());
      send t ~src:node ~dst:target (A_transfer_offer { obj = i.i_obj; page; from = node })
    end
  in
  let to_step4 () = pageout_to_pager t node i ps ~page ~contents ~dirty in
  match i.i_last_acceptor with
  | Some last when last <> candidate && last <> node ->
    try_candidate candidate ~fallback:(fun () ->
        try_candidate last ~fallback:to_step4)
  | _ -> try_candidate candidate ~fallback:to_step4

(* Step 4: return the page to the memory object's pager. A dirty page
   carries contents, so the pager node first reserves a receive buffer
   (pages only ever flow on behalf of their receiver). *)
and pageout_to_pager t node i ps ~page ~contents ~dirty =
  count t c_pageout_to_pager;
  let pnode = Store_pager.node (pager_of i page) in
  let conclude () =
    update_static t i ~page ~hint:S_paged;
    finish_owner_op t node i ps page ~moved_to:None
  in
  if not dirty then begin
    send t ~src:node ~dst:pnode (A_to_pager { obj = i.i_obj; page; contents = None });
    conclude ()
  end
  else begin
    Int_tbl.replace i.i_answers page (fun _granted ->
        send t ~src:node ~dst:pnode ~carries_page:true
          (A_to_pager { obj = i.i_obj; page; contents = Some contents });
        conclude ());
    send t ~src:node ~dst:pnode (A_pager_offer { obj = i.i_obj; page; from = node })
  end

(* ------------------------------------------------------------------ *)
(* Message handling                                                   *)
(* ------------------------------------------------------------------ *)

(* Ship a dirty page to the object's pager from outside an owner op
   (fallback paths), honouring the buffer handshake. *)
let pager_store_handshake t node i ~page ~contents =
  Int_tbl.replace i.i_answers page (fun _granted ->
      send t ~src:node
        ~dst:(Store_pager.node (pager_of i page))
        ~carries_page:true
        (A_to_pager { obj = i.i_obj; page; contents = Some contents }));
  send t ~src:node
    ~dst:(Store_pager.node (pager_of i page))
    (A_pager_offer { obj = i.i_obj; page; from = node })

(* [static_updated]: the supplier already recorded this node as owner
   at the static manager (the [updated] flag of the reply), so sending
   a second [A_owner_update] would only repeat the same hint — the
   paper's three-message transfer relies on exactly one. *)
let install_owner t node i ~page ~readers ~version ~dirty ~static_updated =
  let ps = new_pstate ~version in
  ps.p_readers <- readers;
  Int_tbl.replace i.i_pages page ps;
  if dirty then Vm.set_frame_dirty t.vms.(node) ~obj:i.i_obj ~page;
  Hint_cache.remove i.i_dyn ~page;
  trace_ownership t ~obj:i.i_obj ~page ~owner:node;
  if not static_updated then
    update_static t i ~page ~hint:(S_at { owner = node; gen = -1 })

(* Requests that parked here while our own fault was in flight are
   re-routed once ownership (and the frame) have landed. *)
let drain_inbound t node i page =
  match Int_tbl.find_opt i.i_waiting_inbound page with
  | None -> ()
  | Some q ->
    Int_tbl.remove i.i_waiting_inbound page;
    let vm = t.vms.(node) in
    let delay = 2. *. (Vm.config vm).Asvm_machvm.Vm_config.emmi_call_ms in
    Queue.iter
      (fun req -> Engine.schedule (Vm.engine vm) ~delay (fun () -> route_request t node req))
      q

(* A completed fault: sample its latency into the registry; when the
   fault was in crash recovery (re-driven after a dead letter or a
   rejoin), also sample the recovery-latency histogram. *)
let observe_fault_latency t i ~page ~ownership =
  (match Int_tbl.find_opt i.i_outstanding page with
  | None -> ()
  | Some (t0, _gen) ->
    Metrics.Histogram.observe
      (if ownership then t.handles.hm_fault_ownership
       else t.handles.hm_fault_read)
      (now t -. t0));
  match Hashtbl.find_opt t.recovering (i.i_node, i.i_obj, page) with
  | None -> ()
  | Some t0 ->
    Hashtbl.remove t.recovering (i.i_node, i.i_obj, page);
    Metrics.Histogram.observe t.handles.hm_recovery (now t -. t0)

let handle_reply t node
    (origin_obj, page, contents, grant, owner, readers, version, dirty, from,
     updated, gen, stamp) =
  let i = inst t node origin_obj in
  let stale =
    (* a generation-checked reply answering a superseded request: the
       re-driven fault still holds this node's receive-buffer
       reservation, so the stale answer must not consume it *)
    gen >= 0
    &&
    match Int_tbl.find_opt i.i_outstanding page with
    | Some (_, g) -> g <> gen
    | None -> true
  in
  let revoked =
    (not owner)
    &&
    match Int_tbl.find_opt i.i_revoked page with
    | Some (revoker, s) -> revoker = from && stamp < s
    | None -> false
  in
  if stale then count t c_stale_reply
  else if revoked then begin
    (* a read grant overtaken on the wire by its owner's invalidation
       (or reader query): the owner no longer lists this node, so the
       copy is dropped and the fault asks again, keeping its generation
       and its receive-buffer reservation *)
    Int_tbl.remove i.i_revoked page;
    count t c_revoked_read;
    let req =
      fault_request t ~node ~obj:origin_obj ~page ~want:grant ~upgrade:false
        ~gen
    in
    note_request t ~node ~category:"asvm.revoked_read" req;
    route_request t node req
  end
  else begin
  Sts.release_buffer t.sts ~node;
  observe_fault_latency t i ~page ~ownership:owner;
  Int_tbl.remove i.i_outstanding page;
  Int_tbl.remove i.i_revoked page;
  let vm = t.vms.(node) in
  let c = match contents with Some c -> c | None -> zero t in
  (* A write grant that did not come from a previous owner (pager
     supply, zero fill, pull through the shadow chain) has not been
     through the push machinery. If copies exist that the page has not
     been pushed to, grant read-only: the kernel's upgrade fault then
     re-enters the owner state machine here, which runs the push before
     write access is given (3.7.2). *)
  let effective_grant =
    if owner && Prot.equal grant Prot.Read_write && version < i.i_version then
      Prot.Read_only
    else grant
  in
  Vm.data_supply vm ~obj:origin_obj ~page ~contents:c ~lock:effective_grant
    ~mode:Emmi.Supply_normal;
  if owner then
    install_owner t node i ~page ~readers ~version ~dirty
      ~static_updated:updated
  else Hint_cache.put i.i_dyn ~page from;
  drain_inbound t node i page
  end

let reissue t node ~origin_obj ~page ~want ~upgrade =
  route_request t node
    (fault_request t ~node ~obj:origin_obj ~page ~want ~upgrade ~gen:(-1))

let rec handle t node msg =
  match msg with
  | A_request req -> route_request t node req
  | A_pull req -> handle_pull t node req
  | A_pager_lookup req ->
    let i = inst t node req.r_obj in
    pager_lookup t node i req
  | A_reply
      { origin_obj; page; contents; grant; owner; readers; version; dirty; from;
        updated; gen; stamp }
    ->
    handle_reply t node
      ( origin_obj, page, contents, grant, owner, readers, version, dirty, from,
        updated, gen, stamp )
  | A_grant { obj; page; version; from; gen } ->
    let i = inst t node obj in
    let stale =
      gen >= 0
      &&
      match Int_tbl.find_opt i.i_outstanding page with
      | Some (_, g) -> g <> gen
      | None -> true
    in
    if stale then count t c_stale_reply
    else begin
      Sts.release_buffer t.sts ~node;
      observe_fault_latency t i ~page ~ownership:true;
      Int_tbl.remove i.i_outstanding page;
      Int_tbl.remove i.i_revoked page;
      if Vm.is_resident t.vms.(node) ~obj ~page then begin
        Vm.lock_request t.vms.(node) ~obj ~page
          ~op:{ Emmi.max_access = Prot.Read_write; clean = false; mode = Emmi.Lock_plain }
          ~reply:(fun _ -> ());
        (* the granting owner already updated the static manager *)
        install_owner t node i ~page ~readers:[] ~version ~dirty:false
          ~static_updated:true;
        ignore from;
        drain_inbound t node i page
      end
      else
        (* the read copy vanished while the grant was in flight *)
        Sts.acquire_buffer t.sts ~node (fun () ->
            reissue t node ~origin_obj:obj ~page ~want:Prot.Read_write
              ~upgrade:false)
    end
  | A_invalidate { obj; page; new_owner; from; stamp } ->
    (* transition 8.  The ack waits on an async kernel call: record it
       as owed so a crash inside the window still acknowledges (the
       crashed node holds no copy either way). *)
    let i = inst t node obj in
    if Int_tbl.mem i.i_outstanding page then
      Int_tbl.replace i.i_revoked page (from, stamp);
    let owed = (from, A_inval_ack { obj; page }) in
    i.i_owed_acks <- owed :: i.i_owed_acks;
    let inc = Network.incarnation t.net node in
    Vm.lock_request t.vms.(node) ~obj ~page
      ~op:{ Emmi.max_access = Prot.No_access; clean = false; mode = Emmi.Lock_plain }
      ~reply:(fun _ ->
        if
          Network.incarnation t.net node = inc
          && not (Network.is_down t.net node)
        then begin
          i.i_owed_acks <- List.filter (fun o -> o != owed) i.i_owed_acks;
          Hint_cache.put i.i_dyn ~page new_owner;
          send t ~src:node ~dst:from (A_inval_ack { obj; page })
        end)
  | A_inval_ack { obj; page } -> (
    let i = inst t node obj in
    match Int_tbl.find_opt i.i_pages page with
    | Some ps ->
      ps.p_acks <- ps.p_acks - 1;
      if ps.p_acks <= 0 then begin
        let k = ps.p_ack_k in
        ps.p_ack_k <- ignore;
        k ()
      end
    | None -> ())
  | A_owner_update { obj; page; hint } ->
    let i = inst t node obj in
    Hint_cache.put i.i_static ~page hint;
    Bytes.set i.i_seen page '\001'
  | A_reader_query { obj; page; from; dirty; rest; version; stamp } ->
    let i = inst t node obj in
    let vm = t.vms.(node) in
    (* Decline the handoff while this node's own fault for the page is
       in flight.  Accepting would strand that fault: the node becomes
       owner without the fault machinery noticing, and if the page is
       evicted again before the wandering request finds its way home,
       the node parks foreign requests (on [i_outstanding]) it can no
       longer serve — two such nodes park each other's requests and the
       cluster deadlocks.  Declining is always legal in step 2; the
       fault then completes through the ordinary reply path.  The
       evicting owner drops a decliner from the reader list, so a
       resident decliner must also discard its read copy — otherwise it
       would hold a copy invalidations can no longer reach. *)
    if
      Vm.is_resident vm ~obj ~page
      && not (Int_tbl.mem i.i_outstanding page)
    then begin
      (* accept ownership without a page transfer (step 2) *)
      if dirty then Vm.set_frame_dirty vm ~obj ~page;
      let ps = new_pstate ~version in
      ps.p_readers <- List.filter (fun r -> r <> node) rest;
      Int_tbl.replace i.i_pages page ps;
      Hint_cache.remove i.i_dyn ~page;
      update_static t i ~page ~hint:(S_at { owner = node; gen = -1 });
      send t ~src:node ~dst:from (A_reader_answer { obj; page; from = node; accepted = true })
    end
    else begin
      if Int_tbl.mem i.i_outstanding page then
        Int_tbl.replace i.i_revoked page (from, stamp);
      if Vm.is_resident vm ~obj ~page then
        Vm.lock_request vm ~obj ~page
          ~op:
            {
              Emmi.max_access = Prot.No_access;
              clean = false;
              mode = Emmi.Lock_plain;
            }
          ~reply:(fun _ -> ());
      send t ~src:node ~dst:from
        (A_reader_answer { obj; page; from = node; accepted = false })
    end
  | A_reader_answer { obj; page; from = _; accepted } -> (
    let i = inst t node obj in
    match Int_tbl.find_opt i.i_answers page with
    | Some k ->
      Int_tbl.remove i.i_answers page;
      k accepted
    | None -> ())
  | A_transfer_offer { obj; page; from } ->
    (* "a node with free memory" (§3.6 step 2) means free above the
       target's own pageout high watermark: accepting below it would
       refill exactly the headroom that node's daemon just created,
       and evicted pages would circulate between full nodes forever
       instead of converging on the pager.  With the daemon disabled
       (watermarks 0) this is the plain free_pages > 0 check. *)
    let vm = t.vms.(node) in
    let accepted =
      Vm.free_pages vm
      > (Vm.config vm).Asvm_machvm.Vm_config.pageout_high_pages
      && Sts.reserve_buffer t.sts ~node
    in
    send t ~src:node ~dst:from (A_transfer_answer { obj; page; from = node; accepted })
  | A_transfer_answer { obj; page; from = _; accepted } -> (
    let i = inst t node obj in
    match Int_tbl.find_opt i.i_answers page with
    | Some k ->
      Int_tbl.remove i.i_answers page;
      k accepted
    | None -> ())
  | A_transfer_page { obj; page; contents; dirty; version } ->
    let i = inst t node obj in
    Sts.release_buffer t.sts ~node;
    let vm = t.vms.(node) in
    if
      Vm.try_accept_page vm ~obj ~page ~contents ~dirty ~access:Prot.Read_only
    then begin
      let ps = new_pstate ~version in
      Int_tbl.replace i.i_pages page ps;
      Hint_cache.remove i.i_dyn ~page;
      update_static t i ~page ~hint:(S_at { owner = node; gen = -1 })
    end
    else begin
      (* memory vanished since the offer: fall through to the pager *)
      if dirty then pager_store_handshake t node i ~page ~contents
      else
        send t ~src:node
          ~dst:(Store_pager.node (pager_of i page))
          (A_to_pager { obj; page; contents = None });
      update_static t i ~page ~hint:S_paged
    end
  | A_pager_offer { obj; page; from } ->
    (* the grant may wait for a receive buffer: owe it, so a crash
       mid-wait still answers — the contents then dead-letter into the
       store, which survives the crash *)
    let i = inst t node obj in
    let owed = (from, A_pager_grant { obj; page }) in
    i.i_owed_acks <- owed :: i.i_owed_acks;
    Sts.acquire_buffer t.sts ~node (fun () ->
        i.i_owed_acks <- List.filter (fun o -> o != owed) i.i_owed_acks;
        Int_tbl.replace i.i_pageouts page from;
        send t ~src:node ~dst:from (A_pager_grant { obj; page }))
  | A_pager_grant { obj; page } -> (
    let i = inst t node obj in
    match Int_tbl.find_opt i.i_answers page with
    | Some k ->
      Int_tbl.remove i.i_answers page;
      k true
    | None -> ())
  | A_to_pager { obj; page; contents } -> (
    let i = inst t node obj in
    Int_tbl.remove i.i_granted page;
    Int_tbl.remove i.i_pageouts page;
    match contents with
    | Some c ->
      Sts.release_buffer t.sts ~node;
      Store_pager.store_async (pager_of i page) ~obj ~page ~contents:c
    | None ->
      if not (Store_pager.has (pager_of i page) ~obj ~page) then
        (* a clean page that was never stored reverts to fresh *)
        update_static t i ~page ~hint:S_fresh)
  | A_copy_made { obj; peer; shared; new_version; from } ->
    let i = inst t node obj in
    i.i_version <- new_version;
    (match shared with
    | Some copy -> i.i_copies <- (copy, peer) :: i.i_copies
    | None -> ());
    Vm.lock_object_readonly t.vms.(node) obj;
    send t ~src:node ~dst:from (A_copy_ack { obj })
  | A_copy_shared { obj; copy; peer; from } ->
    let i = inst t node obj in
    if not (List.mem_assoc copy i.i_copies) then
      i.i_copies <- (copy, peer) :: i.i_copies;
    send t ~src:node ~dst:from (A_copy_ack { obj })
  | A_copy_ack { obj } ->
    let i = inst t node obj in
    i.i_copy_acks <- i.i_copy_acks - 1;
    if i.i_copy_acks <= 0 then begin
      let k = i.i_copy_k in
      i.i_copy_k <- ignore;
      k ()
    end
  | A_push_lock { obj; page; from } ->
    let vm = t.vms.(node) in
    let i = inst t node obj in
    let owed =
      (from, A_push_lock_done { obj; page; from = node; needs_contents = false })
    in
    i.i_owed_acks <- owed :: i.i_owed_acks;
    let inc = Network.incarnation t.net node in
    Vm.lock_request vm ~obj ~page
      ~op:{ Emmi.max_access = Prot.Read_only; clean = false; mode = Emmi.Lock_push_first }
      ~reply:(fun result ->
        if
          Network.incarnation t.net node = inc
          && not (Network.is_down t.net node)
        then begin
          i.i_owed_acks <- List.filter (fun o -> o != owed) i.i_owed_acks;
          let needs_contents =
            match result with
            | Emmi.Lock_not_present -> Sts.reserve_buffer t.sts ~node
            | Emmi.Lock_done _ -> false
          in
          send t ~src:node ~dst:from
            (A_push_lock_done { obj; page; from = node; needs_contents })
        end)
  | A_push_lock_done { obj; page; from; needs_contents } -> (
    let i = inst t node obj in
    match Int_tbl.find_opt i.i_push_ops page with
    | Some op ->
      if needs_contents then op.o_need_nodes <- from :: op.o_need_nodes;
      op.o_outstanding <- op.o_outstanding - 1;
      if op.o_outstanding <= 0 then begin
        Int_tbl.remove i.i_push_ops page;
        op.o_k ()
      end
    | None -> ())
  | A_push_contents { obj; page; contents; from } ->
    Sts.release_buffer t.sts ~node;
    Vm.data_supply t.vms.(node) ~obj ~page ~contents ~lock:Prot.Read_only
      ~mode:Emmi.Supply_push;
    send t ~src:node ~dst:from (A_push_ack { home = obj; page })
  | A_push_ack { home; page } ->
    push_op_done (inst t node home) ~page
  | A_push_prepare { copy; home; page; from } ->
    (* reserve a buffer for the incoming pushed page of a shared copy;
       owe the pusher an ack in case this node crashes mid-wait *)
    let i = inst t node copy in
    let owed = (from, A_push_ack { home; page }) in
    i.i_owed_acks <- owed :: i.i_owed_acks;
    Sts.acquire_buffer t.sts ~node (fun () ->
        i.i_owed_acks <- List.filter (fun o -> o != owed) i.i_owed_acks;
        send t ~src:node ~dst:from (A_push_ready { copy; home; page }))
  | A_push_ready { copy; home; page } -> (
    let i = inst t node home in
    match Int_tbl.find_opt i.i_push_ops page with
    | Some op -> (
      match op.o_contents with
      | Some contents ->
        let peer =
          match List.assoc_opt copy i.i_copies with Some p -> p | None -> node
        in
        send t ~src:node ~dst:peer ~carries_page:true
          (A_push_to_copy { copy; home; page; contents; from = node })
      | None -> push_op_done i ~page)
    | None -> ())
  | A_push_to_copy { copy; home; page; contents; from } ->
    let i = inst t node copy in
    Sts.release_buffer t.sts ~node;
    if
      (* read-only and version 0: the frozen page has never been pushed
         onward, so the copy's first write must fault back into the
         owner machine and run its own push (nested copy chains) *)
      Vm.try_accept_page t.vms.(node) ~obj:copy ~page ~contents ~dirty:true
        ~access:Prot.Read_only
    then begin
      let ps = new_pstate ~version:0 in
      Int_tbl.replace i.i_pages page ps;
      update_static t i ~page ~hint:(S_at { owner = node; gen = -1 })
    end
    else
      (* no memory at the peer: the frozen page goes to the copy's pager *)
      pager_store_handshake t node i ~page ~contents;
    send t ~src:node ~dst:from (A_push_ack { home; page })
  | A_scan_answer { home; page; copy; found } -> (
    let i = inst t node home in
    match Int_tbl.find_opt i.i_push_ops page with
    | Some op ->
      if not found then begin
        let peer =
          match List.assoc_opt copy i.i_copies with Some p -> p | None -> node
        in
        op.o_need_copies <- (copy, peer) :: op.o_need_copies
      end;
      op.o_outstanding <- op.o_outstanding - 1;
      if op.o_outstanding <= 0 then begin
        Int_tbl.remove i.i_push_ops page;
        op.o_k ()
      end
    | None -> ())
  | A_retry { origin_obj; page; want; upgrade } ->
    count t c_copy_retry;
    reissue t node ~origin_obj ~page ~want ~upgrade

and handle_pull t node req =
  (* Executed on the peer node of a copy object: walk the local shadow
     chain with the extended EMMI pull call (figure 9). *)
  let vm = t.vms.(node) in
  Vm.pull_request vm ~obj:req.r_obj ~page:req.r_page ~reply:(fun result ->
      match result with
      | Emmi.Pull_contents contents ->
        send t ~src:node ~dst:req.r_origin ~carries_page:true
          (A_reply
             {
               origin_obj = req.r_origin_obj;
               page = req.r_page;
               contents = Some contents;
               grant = req.r_want;
               owner = true;
               readers = [];
               version = 0;
               dirty = false;
               from = node;
               updated = false;
               gen = req.r_gen;
               stamp = 0;
             })
      | Emmi.Pull_zero_fill ->
        send t ~src:node ~dst:req.r_origin
          (A_reply
             {
               origin_obj = req.r_origin_obj;
               page = req.r_page;
               contents = None;
               grant = req.r_want;
               owner = true;
               readers = [];
               version = 0;
               dirty = false;
               from = node;
               updated = false;
               gen = req.r_gen;
               stamp = 0;
             })
      | Emmi.Pull_ask_shadow shadow_obj ->
        (* continue the search in the shadow object's SVM space *)
        req.r_obj <- shadow_obj;
        req.r_ring <- -1;
        let req = { req with r_kind = K_pull } in
        route_request t node req)

(* ------------------------------------------------------------------ *)
(* Node crash and rejoin (see docs/AVAILABILITY.md)                   *)
(* ------------------------------------------------------------------ *)

(* Apply a hint at the page's static manager without a message.  Crash
   recovery runs at simulator level — a send from the crashed node
   would silently vanish — standing in for the recovery coordinator a
   real implementation would run on a surviving node.

   Never write into a manager that is itself down: the hint would
   survive in its rebuilt table until rejoin, but claims made meanwhile
   bypass the dead manager (requests sweep to the pager instead), so
   nothing can correct it — a stale [S_fresh] resurfacing at rejoin
   would zero-grant a second owner.  The rebuilt table's conservative
   state (every page marked ever-owned, forcing a sweep whose endpoint
   is the pager's serializing grant table) is the safe answer. *)
let set_static_hint t i ~page ~hint =
  let sm = static_mgr i page in
  if not (Network.is_down t.net sm) then
    match Pair_tbl.find_opt t.insts (sm, i.i_obj) with
    | None -> ()
    | Some mi ->
      Hint_cache.put mi.i_static ~page hint;
      Bytes.set mi.i_seen page '\001'

(* Forget that the pager last granted [page] to a node whose copy died
   with it, so the next cold fault is not chased into the crash site.
   With [holder], only an entry that still names that node: a message
   dead-lettering at a crashed node can arrive long after the crash,
   and an entry naming anyone else then records a grant made since —
   the pager may well have supplied a survivor — which must stay, or
   the next lookup mints a second owner. *)
let purge_granted ?holder t i ~page =
  let pnode = Store_pager.node (pager_of i page) in
  match Pair_tbl.find_opt t.insts (pnode, i.i_obj) with
  | Some pi -> (
    match (Int_tbl.find_opt pi.i_granted page, holder) with
    | Some (h, _), Some dead when h <> dead -> ()
    | Some _, _ -> Int_tbl.remove pi.i_granted page
    | None, _ -> ())
  | None -> ()

(* Restart a fault whose request or answer was lost to a crash.  The
   re-drive bumps the origin's fault generation so any answer to the
   superseded request is dropped instead of double-consuming the
   origin's receive-buffer reservation; generation [-1] requests (which
   never race their own re-drive) restart as they were.  A fault whose
   outstanding entry is gone or superseded has already been answered —
   nothing to recover. *)
let redrive_fault t req =
  let origin = req.r_origin in
  if
    Network.is_down t.net origin
    || Network.incarnation t.net origin <> req.r_origin_inc
  then ()
  else
    match Pair_tbl.find_opt t.insts (origin, req.r_origin_obj) with
    | None -> ()
    | Some oi -> (
      let gen =
        if req.r_gen < 0 then Some (-1)
        else
          match Int_tbl.find_opt oi.i_outstanding req.r_page with
          | Some (t0, g) when g = req.r_gen ->
            let g' = oi.i_next_gen in
            oi.i_next_gen <- g' + 1;
            Int_tbl.replace oi.i_outstanding req.r_page (t0, g');
            Some g'
          | Some _ | None -> None
      in
      match gen with
      | None -> ()
      | Some gen ->
        count t c_redrive;
        let key = (origin, req.r_origin_obj, req.r_page) in
        if not (Hashtbl.mem t.recovering key) then
          Hashtbl.replace t.recovering key (now t);
        route_request t origin
          {
            req with
            r_obj = req.r_origin_obj;
            r_hops = 0;
            r_ring = -1;
            r_directed = -1;
            r_kind = K_fault;
            r_gen = gen;
          })

(* Hand a synthesized message to a node as if it had been delivered. *)
let deliver_if_alive t node msg =
  if not (Network.is_down t.net node) then handle t node msg

(* The transports' dead-letter hook: every message that could not be
   delivered because an endpoint crashed lands here, as a fresh engine
   event.  When only the sender died the content is still valid — the
   staleness guards protect against resurrecting a dead fault — so it
   is applied at the receiver verbatim.  When the receiver died, each
   message kind gets the conservative synthesis that keeps the
   survivors' protocol machines moving (see docs/AVAILABILITY.md for
   the case-by-case rationale). *)
let salvage t ~src ~dst ~src_dead ~dst_dead msg =
  if not dst_dead then begin
    count t c_salvaged;
    match msg with
    | A_reply { owner = false; origin_obj; page; grant; gen; _ } when src_dead
      ->
      (* A read grant from an owner that died after sending it.  The
         crash re-elected a new owner whose reader list was rebuilt
         from the dead owner's registrations filtered to *resident*
         survivors — the origin, whose copy was still in flight, is not
         on it.  Installing the copy would leave an unregistered reader
         that later invalidation rounds cannot see, forking the page.
         Drop the contents and redrive the fault: the fresh request
         reaches the re-elected owner, which registers the origin
         properly. *)
      redrive_fault t
        (fault_request t ~node:dst ~obj:origin_obj ~page ~want:grant
           ~upgrade:false ~gen)
    | msg -> handle t dst msg
  end
  else
    let inst_opt obj = Pair_tbl.find_opt t.insts (dst, obj) in
    match msg with
    | A_request req | A_pager_lookup req | A_pull req ->
      if req.r_kind = K_push_scan then
        (* [found = false] is the safe answer: it costs at most one
           redundant push, where [true] could skip a needed one *)
        deliver_if_alive t req.r_origin
          (A_scan_answer
             {
               home = req.r_scan_home;
               page = req.r_page;
               copy = req.r_origin_obj;
               found = false;
             })
      else redrive_fault t req
    | A_reply { origin_obj; page; contents; owner; _ } -> (
      match inst_opt origin_obj with
      | None -> ()
      | Some i ->
        if owner then begin
          (match contents with
          | Some c ->
            (* ownership plus data died in flight to the crashed
               origin: write the page back to its pager — the store
               survives the crash (stable storage) *)
            count t c_rescued_page;
            Store_pager.remember (pager_of i page) ~obj:origin_obj ~page
              ~contents:c;
            set_static_hint t i ~page ~hint:S_paged
          | None ->
            set_static_hint t i ~page
              ~hint:
                (if Store_pager.has (pager_of i page) ~obj:origin_obj ~page
                 then S_paged
                 else S_fresh));
          purge_granted ~holder:dst t i ~page
        end)
    | A_grant { obj; page; _ } -> (
      (* upgrade grant to a crashed reader: its read copy died with it;
         fall back to the pager image when one exists — otherwise the
         page reverts to fresh (the documented loss window) *)
      match inst_opt obj with
      | None -> ()
      | Some i ->
        count t c_lost_grant;
        set_static_hint t i ~page
          ~hint:
            (if Store_pager.has (pager_of i page) ~obj ~page then S_paged
             else S_fresh);
        purge_granted ~holder:dst t i ~page)
    | A_invalidate { obj; page; from; _ } ->
      (* a crashed reader holds no copy: acknowledge on its behalf *)
      deliver_if_alive t from (A_inval_ack { obj; page })
    | A_reader_query { obj; page; from; _ } ->
      deliver_if_alive t from
        (A_reader_answer { obj; page; from = dst; accepted = false })
    | A_transfer_offer { obj; page; from } ->
      deliver_if_alive t from
        (A_transfer_answer { obj; page; from = dst; accepted = false })
    | A_transfer_answer { accepted; _ } ->
      (* the offering owner died; the acceptor's reservation would leak *)
      if accepted && not (Network.is_down t.net src) then
        Sts.release_buffer t.sts ~node:src
    | A_transfer_page { obj; page; contents; _ } -> (
      match inst_opt obj with
      | None -> ()
      | Some i ->
        count t c_rescued_page;
        Store_pager.remember (pager_of i page) ~obj ~page ~contents;
        set_static_hint t i ~page ~hint:S_paged;
        purge_granted ~holder:dst t i ~page)
    | A_pager_offer { obj; page; from } ->
      (* the pager's node died; accept on its behalf — the contents
         then dead-letter into the store, which survives the crash *)
      deliver_if_alive t from (A_pager_grant { obj; page })
    | A_pager_grant { obj; page } ->
      (* the offering owner died; the pager-side reservation would leak,
         and lookups would wait forever on the pageout it announced *)
      if not (Network.is_down t.net src) then begin
        Sts.release_buffer t.sts ~node:src;
        match Pair_tbl.find_opt t.insts (src, obj) with
        | Some pi -> Int_tbl.remove pi.i_pageouts page
        | None -> ()
      end
    | A_to_pager { obj; page; contents } -> (
      match inst_opt obj with
      | None -> ()
      | Some i -> (
        match contents with
        | Some c ->
          count t c_rescued_page;
          Store_pager.remember (pager_of i page) ~obj ~page ~contents:c
        | None ->
          if not (Store_pager.has (pager_of i page) ~obj ~page) then
            set_static_hint t i ~page ~hint:S_fresh))
    | A_copy_made { obj; from; _ } | A_copy_shared { obj; from; _ } ->
      deliver_if_alive t from (A_copy_ack { obj })
    | A_push_lock { obj; page; from } ->
      deliver_if_alive t from
        (A_push_lock_done { obj; page; from = dst; needs_contents = false })
    | A_push_contents { obj; page; from; _ } ->
      deliver_if_alive t from (A_push_ack { home = obj; page })
    | A_push_prepare { home; page; from; _ } ->
      deliver_if_alive t from (A_push_ack { home; page })
    | A_push_ready _ ->
      (* the pushing owner died; the copy peer's reservation would leak *)
      if not (Network.is_down t.net src) then
        Sts.release_buffer t.sts ~node:src
    | A_push_to_copy { copy; home; page; contents; from } ->
      (match inst_opt copy with
      | None -> ()
      | Some i ->
        count t c_rescued_page;
        Store_pager.remember (pager_of i page) ~obj:copy ~page ~contents;
        set_static_hint t i ~page ~hint:S_paged);
      deliver_if_alive t from (A_push_ack { home; page })
    | A_inval_ack _ | A_owner_update _ | A_reader_answer _
    | A_push_lock_done _ | A_push_ack _ | A_scan_answer _ | A_retry _
    | A_copy_ack _ ->
      (* the state these answer died with the node *)
      ()

(* ------------------------------------------------------------------ *)
(* Construction / registration                                        *)
(* ------------------------------------------------------------------ *)

let create ~net ~(config : config) ~vms ~words_per_page ?metrics ?trace () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.Registry.create ()
  in
  let sts = Sts.create ~metrics ?trace net config.sts in
  let t =
    {
      sts;
      net;
      vms;
      wpp = words_per_page;
      config;
      insts = Pair_tbl.create 64;
      metrics;
      handles = make_handles metrics;
      trace;
      recovering = Hashtbl.create 16;
    }
  in
  Array.iteri (fun node _ -> Sts.register sts ~node (fun msg -> handle t node msg)) vms;
  Sts.set_on_dead_letter sts
    (Some
       (fun ~src ~dst ~src_dead ~dst_dead msg ->
         salvage t ~src ~dst ~src_dead ~dst_dead msg));
  t

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
    i_owed_acks = [];
    i_granted = Int_tbl.create 8;
    i_pageouts = Int_tbl.create 8;
    i_stamp = 0;
    i_revoked = Int_tbl.create 8;
    i_copy_acks = 0;
    i_copy_k = ignore;
  }

let register_object t ~obj ~size_pages ~sharers ~pagers ?forwarding ?shadow ()
    =
  (match pagers with
  | [] -> invalid_arg "Asvm.register_object: at least one pager required"
  | _ -> ());
  let pagers = Array.of_list pagers in
  let fwd = Option.value forwarding ~default:t.config.forwarding in
  let pager_nodes =
    Array.to_list (Array.map Store_pager.node pagers)
    |> List.filter (fun n -> not (List.mem n sharers))
    |> List.sort_uniq compare
  in
  let nodes = sharers @ pager_nodes in
  List.iter
    (fun node ->
      Pair_tbl.replace t.insts (node, obj)
        (make_inst t ~node ~obj ~size_pages ~sharers ~pagers ~fwd ~shadow))
    nodes;
  (* EMMI manager proxy for each sharer's kernel *)
  List.iter
    (fun node ->
      let request ~page ~desired ~upgrade =
        if Network.is_down t.net node then ()
        else
        let fire gen =
          route_request t node
            (fault_request t ~node ~obj ~page ~want:desired ~upgrade ~gen)
        in
        let i = inst t node obj in
        match Int_tbl.find_opt i.i_pages page with
        | Some _ when upgrade ->
          (* self-owned upgrade: run the owner machine locally. The
             reservation covers the case where the request queues behind
             an in-flight grant, ownership leaves, and the request is
             forwarded off-node — its answer then carries a page.
             Ownership may equally leave while the request waits for
             the reservation, so it is routed once it holds one: to the
             current owner state here, or off-node. *)
          Sts.acquire_buffer t.sts ~node (fun () -> fire (-1))
        | _ ->
          if Int_tbl.mem i.i_outstanding page then
            (* one request per page at a time: a second kernel request
               (e.g. a write upgrade behind a read fault) is answered by
               the kernel's own retry after the first reply lands — a
               duplicate in-flight request could overwrite owner state
               built meanwhile *)
            ()
          else begin
            (* a page answer needs a preallocated receive buffer here;
               requests wait when the pool is exhausted (flow control) *)
            let gen = i.i_next_gen in
            i.i_next_gen <- gen + 1;
            Int_tbl.replace i.i_outstanding page
              (Engine.now (Vm.engine t.vms.(node)), gen);
            Sts.acquire_buffer t.sts ~node (fun () -> fire gen)
          end
      in
      let manager =
        {
          Emmi.m_data_request =
            (fun ~page ~desired -> request ~page ~desired ~upgrade:false);
          m_data_unlock =
            (fun ~page ~desired -> request ~page ~desired ~upgrade:true);
          m_data_return =
            (fun ~page ~contents ~dirty ->
              if Network.is_down t.net node then ()
              else
                let i = inst t node obj in
                match Int_tbl.find_opt i.i_pages page with
                | None -> () (* not the owner: simply discard (step 1) *)
                | Some ps -> handle_eviction t node i ps ~page ~contents ~dirty);
        }
      in
      Vm.set_manager t.vms.(node) obj (Some manager))
    sharers

(* ------------------------------------------------------------------ *)
(* Crash entry points (phases 2-4 of docs/AVAILABILITY.md)            *)
(* ------------------------------------------------------------------ *)

(* Give a page the crashed node owned a new owner among its surviving
   readers; with no surviving in-memory copy, fall back to the pager
   image — or, when the pager never saw the page, back to fresh (the
   documented data-loss case, counted in [crash.lost_pages]).  This runs
   at the crash instant, after [crash_node] dropped every grant naming
   the victim: a grant-table entry left for the page names a holder
   that passed ownership on towards the victim, so it is stale and goes
   unconditionally. *)
let reelect t ~victim i ~page ~ps =
  let obj = i.i_obj in
  let candidates =
    List.filter
      (fun r ->
        r <> victim
        && (not (Network.is_down t.net r))
        && Vm.is_resident t.vms.(r) ~obj ~page)
      ps.p_readers
  in
  match candidates with
  | owner :: rest ->
    count t c_reelection;
    let oi = inst t owner obj in
    let nps = new_pstate ~version:ps.p_version in
    nps.p_readers <- rest;
    Int_tbl.replace oi.i_pages page nps;
    Hint_cache.remove oi.i_dyn ~page;
    (* the survivor's copy may now be the only one anywhere: make sure
       an eviction writes it back instead of discarding it as clean *)
    Vm.set_frame_dirty t.vms.(owner) ~obj ~page;
    trace_ownership t ~obj ~page ~owner;
    set_static_hint t oi ~page ~hint:(S_at { owner; gen = -1 });
    purge_granted t i ~page
  | [] ->
    let hint =
      if Store_pager.has (pager_of i page) ~obj ~page then S_paged
      else begin
        count t c_lost_page;
        S_fresh
      end
    in
    set_static_hint t i ~page ~hint;
    purge_granted t i ~page

let crash_node t ~node =
  Sts.crash_node t.sts ~node;
  (* snapshot the victim's protocol instances *)
  let victims =
    Pair_tbl.fold
      (fun (n, obj) i acc -> if n = node then (obj, i) :: acc else acc)
      t.insts []
  in
  (* requests other nodes had parked at the victim — waiting on its
     in-flight fault, queued at its owner machine, or actively being
     served — restart from their origins; owed answers are synthesized
     so no survivor waits on the dead node *)
  let parked = ref [] and owed = ref [] in
  let park req = parked := req :: !parked in
  List.iter
    (fun (_obj, i) ->
      Int_tbl.iter (fun _page q -> Queue.iter park q) i.i_waiting_inbound;
      Int_tbl.clear i.i_waiting_inbound;
      Int_tbl.iter
        (fun _page ps ->
          (match ps.p_active with Some req -> park req | None -> ());
          Queue.iter park ps.p_queue;
          Queue.clear ps.p_queue;
          Queue.iter park ps.p_retries;
          Queue.clear ps.p_retries)
        i.i_pages;
      owed := i.i_owed_acks @ !owed;
      i.i_owed_acks <- [])
    victims;
  (* the victim restarts with empty protocol state.  Its static-manager
     role restarts conservative: every page marked ever-owned, so a
     lookup sweeps the ring instead of trusting the zeroed table — a
     wrongly-granted "fresh" zero page would fork the object's
     contents.  Version and copy configuration carry over (durable
     object-registration idealization), and so does the read-grant
     stamp, which survivors compare against stamps from before the
     crash. *)
  List.iter
    (fun (obj, i) ->
      let fresh =
        make_inst t ~node ~obj ~size_pages:i.i_size
          ~sharers:(Array.to_list i.i_sharers)
          ~pagers:i.i_pagers ~fwd:i.i_fwd ~shadow:i.i_shadow
      in
      Bytes.fill fresh.i_seen 0 i.i_size '\001';
      fresh.i_version <- i.i_version;
      fresh.i_stamp <- i.i_stamp;
      fresh.i_copies <- i.i_copies;
      Pair_tbl.replace t.insts (node, obj) fresh)
    victims;
  (* purge the victim from every survivor's reader lists and grant
     tables: hints are re-verified at use, but reader lists drive
     invalidation rounds that must not wait on a dead node *)
  Pair_tbl.iter
    (fun (n, _obj) i ->
      if n <> node then begin
        Int_tbl.iter
          (fun _page ps ->
            ps.p_readers <- List.filter (fun r -> r <> node) ps.p_readers)
          i.i_pages;
        let stale =
          Int_tbl.fold
            (fun page (holder, _) acc ->
              if holder = node then page :: acc else acc)
            i.i_granted []
        in
        List.iter (fun page -> Int_tbl.remove i.i_granted page) stale;
        (* pending dirty pageouts from the victim will never arrive
           (or dead-letter straight into the store): stop holding
           lookups for them *)
        let stale_po =
          Int_tbl.fold
            (fun page evictor acc ->
              if evictor = node then page :: acc else acc)
            i.i_pageouts []
        in
        List.iter (fun page -> Int_tbl.remove i.i_pageouts page) stale_po
      end)
    t.insts;
  (* re-elect an owner for every page the victim owned *)
  List.iter
    (fun (_obj, i) ->
      Int_tbl.iter (fun page ps -> reelect t ~victim:node i ~page ~ps) i.i_pages)
    victims;
  (* restart parked requests and deliver owed answers as fresh events *)
  let eng = Network.engine t.net in
  List.iter
    (fun req ->
      Engine.schedule eng ~delay:0. (fun () -> redrive_fault t req))
    !parked;
  List.iter
    (fun (dst, msg) ->
      Engine.schedule eng ~delay:0. (fun () -> deliver_if_alive t dst msg))
    !owed

let rejoin_node t ~node =
  (* mark the node's surviving kernel faults as recovering, then
     restart them: each re-faults through a fresh manager request *)
  List.iter
    (fun (obj, page) ->
      if
        Pair_tbl.mem t.insts (node, obj)
        && not (Hashtbl.mem t.recovering (node, obj, page))
      then Hashtbl.replace t.recovering (node, obj, page) (now t))
    (Vm.pending_pages t.vms.(node));
  Vm.redrive_pending t.vms.(node)

let object_copied t ~src ~peer ~shared k =
  let i = inst t peer src in
  let new_version = i.i_version + 1 in
  let sharers = Array.to_list i.i_sharers in
  i.i_copy_acks <- List.length sharers;
  i.i_copy_k <- k;
  List.iter
    (fun node ->
      send t ~src:peer ~dst:node
        (A_copy_made { obj = src; peer; shared; new_version; from = peer }))
    sharers

(* ------------------------------------------------------------------ *)
(* Range locking (paper section 6, future work): pin pages this node
   owns so remote requests queue until release — the primitive a
   striped Unix filesystem needs for atomic read/write. *)
(* ------------------------------------------------------------------ *)

let hold_page t ~node ~obj ~page =
  let i = inst t node obj in
  match Int_tbl.find_opt i.i_pages page with
  | Some ps when not ps.p_busy ->
    ps.p_busy <- true;
    Vm.wire t.vms.(node) ~obj ~page;
    true
  | Some _ | None -> false

let release_page t ~node ~obj ~page =
  let i = inst t node obj in
  match Int_tbl.find_opt i.i_pages page with
  | Some ps when ps.p_busy ->
    (* stay owner; the owner-op epilogue drains queued requests *)
    finish_owner_op t node i ps page ~moved_to:(Some node)
  | Some _ | None -> ()

let copy_promoted t ~src ~copy ~peer k =
  let i = inst t peer src in
  let sharers = Array.to_list i.i_sharers in
  i.i_copy_acks <- List.length sharers;
  i.i_copy_k <- k;
  List.iter
    (fun node ->
      send t ~src:peer ~dst:node
        (A_copy_shared { obj = src; copy; peer; from = peer }))
    sharers

let claim_residents t ~node ~obj =
  let i = inst t node obj in
  match Vm.find_object t.vms.(node) obj with
  | None -> ()
  | Some o ->
    List.iter
      (fun page ->
        if not (Int_tbl.mem i.i_pages page) then begin
          Int_tbl.replace i.i_pages page (new_pstate ~version:i.i_version);
          update_static t i ~page ~hint:(S_at { owner = node; gen = -1 })
        end)
      (Asvm_machvm.Vm_object.resident_pages o)

let owner_entries t ~node ~obj =
  match Pair_tbl.find_opt t.insts (node, obj) with
  | Some i -> Int_tbl.length i.i_pages
  | None -> 0

(* rough per-entry sizes of the real structures: an owner entry is a
   reader list head + version + flags (~32 B); a hint is a page/node
   pair (~16 B); the seen bitmap is 1 bit per page *)
let state_bytes t ~node ~obj =
  match Pair_tbl.find_opt t.insts (node, obj) with
  | Some i ->
    (32 * Int_tbl.length i.i_pages)
    + (16 * Hint_cache.size i.i_dyn)
    + (16 * Hint_cache.size i.i_static)
    + ((i.i_size + 7) / 8)
  | None -> 0

let is_owner t ~node ~obj ~page =
  match Pair_tbl.find_opt t.insts (node, obj) with
  | Some i -> Int_tbl.mem i.i_pages page
  | None -> false

let readers t ~obj ~page =
  let found = ref None in
  Pair_tbl.iter
    (fun (_node, o) i ->
      if o = obj then
        match Int_tbl.find_opt i.i_pages page with
        | Some ps -> found := Some ps.p_readers
        | None -> ())
    t.insts;
  !found

let check_invariants t =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* group instances per object *)
  let objects = Hashtbl.create 32 in
  Pair_tbl.iter
    (fun (node, obj) i ->
      let l = match Hashtbl.find_opt objects obj with Some l -> l | None -> [] in
      Hashtbl.replace objects obj ((node, i) :: l))
    t.insts;
  Hashtbl.iter
    (fun obj insts ->
      let owners_of page =
        List.filter_map
          (fun (node, i) ->
            match Int_tbl.find_opt i.i_pages page with
            | Some ps -> Some (node, ps)
            | None -> None)
          insts
      in
      let size =
        match insts with (_, i) :: _ -> i.i_size | [] -> 0
      in
      for page = 0 to size - 1 do
        let owners = owners_of page in
        (match owners with
        | [] | [ _ ] -> ()
        | many ->
          bad "obj#%d page %d has %d owners: %s" obj page (List.length many)
            (String.concat ","
               (List.map (fun (n, _) -> string_of_int n) many)));
        List.iter
          (fun (node, ps) ->
            if ps.p_busy then
              bad "obj#%d page %d: owner %d stuck busy" obj page node;
            if ps.p_pushing then
              bad "obj#%d page %d: owner %d stuck pushing" obj page node;
            if not (Queue.is_empty ps.p_queue) then
              bad "obj#%d page %d: %d requests queued at idle owner %d" obj
                page (Queue.length ps.p_queue) node;
            if not (Vm.is_resident t.vms.(node) ~obj ~page) then
              bad "obj#%d page %d: owner %d does not hold the page" obj page
                node;
            List.iter
              (fun r ->
                if r = node then
                  bad "obj#%d page %d: owner %d lists itself as reader" obj
                    page node)
              ps.p_readers;
            if
              List.length (List.sort_uniq compare ps.p_readers)
              <> List.length ps.p_readers
            then bad "obj#%d page %d: duplicate readers" obj page)
          owners
      done;
      (* kernel-level single writer: write access implies ownership *)
      List.iter
        (fun (node, i) ->
          for page = 0 to size - 1 do
            match Vm.frame_access t.vms.(node) ~obj ~page with
            | Some Prot.Read_write when not (Int_tbl.mem i.i_pages page) ->
              bad "obj#%d page %d: node %d has write access without ownership"
                obj page node
            | Some _ | None -> ()
          done;
          Int_tbl.iter
            (fun page q ->
              bad
                "obj#%d: node %d still parks %d foreign requests for page %d \
                 (outstanding=%b owner=%b resident=%b)"
                obj node (Queue.length q) page
                (Int_tbl.mem i.i_outstanding page)
                (Int_tbl.mem i.i_pages page)
                (Vm.is_resident t.vms.(node) ~obj ~page))
            i.i_waiting_inbound;
          if Int_tbl.length i.i_push_ops > 0 then
            bad "obj#%d: node %d has unfinished push operations" obj node;
          if Int_tbl.length i.i_answers > 0 then
            bad "obj#%d: node %d awaits unanswered queries" obj node)
        insts)
    objects;
  List.rev !violations
