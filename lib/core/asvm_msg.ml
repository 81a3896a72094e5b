(* ASVM's messages (paper 3.2-3.7): the fault request, every message
   kind, the answers built from a request, and each one's metric row. *)

module Engine = Asvm_simcore.Engine
module Stats = Asvm_simcore.Stats
module Int_tbl = Asvm_simcore.Int_tbl
module Pair_tbl = Asvm_simcore.Pair_tbl
module Network = Asvm_mesh.Network
module Sts = Asvm_sts.Sts
module Vm = Asvm_machvm.Vm
module Vm_object = Asvm_machvm.Vm_object
module Prot = Asvm_machvm.Prot
module Contents = Asvm_machvm.Contents
module Emmi = Asvm_machvm.Emmi
module Ids = Asvm_machvm.Ids
module Store_pager = Asvm_pager.Store_pager
module Metrics = Asvm_obs.Metrics
module Trace = Asvm_obs.Trace
module Msg_meter = Asvm_obs.Msg_meter

type forwarding = { dynamic : bool; static : bool }

type config = {
  sts : Sts.config;
  dynamic_cache_pages : int;
  static_cache_pages : int;
  internode_paging : bool;
}

let default_config =
  {
    sts = Sts.default_config;
    dynamic_cache_pages = 256;
    static_cache_pages = 4096;
    internode_paging = true;
  }

(* Static-manager hints (paper figure 6): besides a node reference, the
   cache can record that a page was never initialized (fresh) or has
   been paged out (paged).  A node reference names one crash
   incarnation of [owner] — an entry about an incarnation that has
   since crashed is no entry at all — and the fault generation at
   [owner] that the hint designates as the page's next owner ([-1] once
   that node owns the page): a request the manager forwards on it may
   park only behind that exact fault (see [route_request]). *)
type shint = S_at of { owner : int; inc : int; gen : int } | S_fresh | S_paged

type rkind = K_fault | K_pull | K_push_scan

type request = {
  r_origin : int;  (** faulting node *)
  r_origin_obj : Ids.obj_id;  (** object the answer is supplied into *)
  mutable r_obj : Ids.obj_id;  (** object currently being searched *)
  r_page : int;
  r_want : Prot.t;
  r_upgrade : bool;
  r_scan_home : Ids.obj_id;  (** for push scans: source object waiting *)
  mutable r_ring : int;  (** -1 = not sweeping; else the sweep's start node *)
  mutable r_directed : int;
      (** the fault generation at the receiving node that a designating
          authority (static-manager table, pager grant table, or an
          owner handing on its queue) named as the page's next owner;
          the receiver parks the request only behind that fault.  [-1]
          = not directed, set by every other forwarding hop. *)
  r_kind : rkind;
  r_origin_inc : int;
      (** the origin's crash incarnation when the request was issued: a
          request outlives its origin's crash only as garbage, dropped
          at its next routing hop (see [docs/AVAILABILITY.md]) *)
  r_gen : int;
      (** fault generation at the origin, echoed back in the reply.  A
          crash-recovery re-drive bumps the generation so answers to the
          superseded request are discarded instead of double-consuming
          the origin's receive-buffer reservation.  [-1] on push scans,
          which are not faults. *)
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
  | A_grant of { obj : Ids.obj_id; page : int; version : int; gen : int }
  | A_invalidate of {
      obj : Ids.obj_id;
      page : int;
      new_owner : int;
      from : int;
      stamp : int;  (** the sender's [i_stamp] when it revoked *)
    }
  | A_inval_ack of { obj : Ids.obj_id; page : int }
  | A_owner_update of { obj : Ids.obj_id; page : int; hint : shint; seq : int }
      (** [seq]: the update's number ([record_static]) *)
  | A_reader_query of {
      obj : Ids.obj_id;
      page : int;
      from : int;
      dirty : bool;
      rest : int list;
      version : int;
      stamp : int;  (** the sender's [i_stamp] when it asked *)
    }
  | A_reader_answer of { obj : Ids.obj_id; page : int; accepted : bool }
  | A_transfer_offer of { obj : Ids.obj_id; page : int; from : int }
  | A_transfer_answer of { obj : Ids.obj_id; page : int; accepted : bool }
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
      gen : int;  (** the retried fault's [r_gen] *)
    }

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

(* Paper 3.1: a message is a fixed header plus at most one page, and a
   page only ever travels towards a node that asked for it (a fault
   answer, an accepted pageout or push) — whether one rides along is a
   property of the message alone. *)
let carries_page = function
  | A_reply { contents = Some _; _ } | A_to_pager { contents = Some _; _ }
  | A_transfer_page _ | A_push_contents _ | A_push_to_copy _ ->
    true
  | A_reply { contents = None; _ } | A_to_pager { contents = None; _ }
  | A_request _ | A_pager_lookup _ | A_pull _ | A_grant _ | A_invalidate _
  | A_inval_ack _ | A_owner_update _ | A_reader_query _ | A_reader_answer _
  | A_transfer_offer _ | A_transfer_answer _ | A_pager_offer _
  | A_pager_grant _ | A_copy_made _ | A_copy_shared _ | A_copy_ack _
  | A_push_lock _ | A_push_lock_done _ | A_push_ack _ | A_push_prepare _
  | A_push_ready _ | A_scan_answer _ | A_retry _ ->
    false

(* Message class for the metrics registry and the trace: one fixed row
   table, indexed by [row_of_msg], that {!Msg_meter} resolves to its
   series.  Each class is bucketed into the accounting groups the
   paper's message-count claims are stated in (Table 1 and section 3):
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

(* The static hint claiming the page for fault [req]'s origin. *)
let claimed_for req =
  S_at { owner = req.r_origin; inc = req.r_origin_inc; gen = req.r_gen }

(* The answer from [node] to fault request [req]; [None] contents are a
   zero fill. *)
let reply ~node req ~grant ~owner ~version ~dirty ~updated ~stamp contents =
  A_reply
    {
      origin_obj = req.r_origin_obj;
      page = req.r_page;
      contents;
      grant;
      owner;
      version;
      dirty;
      from = node;
      updated;
      gen = req.r_gen;
      stamp;
    }

(* Ownership at the requested access from outside the owner machine (a
   pager supply, a zero fill, a pull down the shadow chain): version 0,
   clean, no read-grant stamp. *)
let handover ~node req ~updated contents =
  reply ~node req ~grant:req.r_want ~owner:true ~version:0 ~dirty:false
    ~updated ~stamp:0 contents

(* A push scan's verdict on its copy object: [found] = the copy already
   holds the page (an owner or the pager has it), so no push is due. *)
let scan_answer req ~found =
  A_scan_answer
    { home = req.r_scan_home; page = req.r_page; copy = req.r_origin_obj; found }
