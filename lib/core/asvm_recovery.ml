(* Node crash, rejoin and dead letters (docs/AVAILABILITY.md): not in
   the paper, whose nodes never fail. *)

open Asvm_state
open Asvm_pager_role
open Asvm_forward
open Asvm_dispatch

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
    match Pair_tbl.find_opt t.insts sm i.i_obj with
    | None -> ()
    | Some mi -> record_static mi ~page ~seq:(next_seq t) hint

(* A page's only copy died in flight to a crashed node: bank it in its
   pager's store, which survives the crash (stable storage). *)
let rescue t i ~page contents =
  count t c_rescued_page;
  Store_pager.remember (pager_of i page) ~obj:i.i_obj ~page ~contents;
  set_static_hint t i ~page ~hint:S_paged

(* The hint for a page no surviving node holds: the pager image when
   the store has one, else fresh (the documented loss window). *)
let paged_or_fresh i ~page =
  if Store_pager.has (pager_of i page) ~obj:i.i_obj ~page then S_paged
  else S_fresh

(* Forget the pager's grant of [page] once the page's owner died (or
   its ownership died in flight), so the next cold fault is not chased
   towards the crash site — unless the entry records a grant its holder
   still owns or still awaits.  A message dead-lettering at a crashed
   node can arrive long after the crash, and the pager may well have
   supplied a survivor since: that entry must stay, or the next lookup
   mints a second owner.  Any other entry names a holder that passed
   the page on, and a chase to it could only come back to the pager. *)
let purge_granted t i ~page =
  let pnode = Store_pager.node (pager_of i page) in
  let holds (holder, gen) =
    (not (Network.is_down t.net holder))
    &&
    match Pair_tbl.find_opt t.insts holder i.i_obj with
    | None -> false
    | Some hi -> (
      Int_tbl.mem hi.i_pages page
      ||
      match Int_tbl.find_opt hi.i_outstanding page with
      | Some (_, g) -> g = gen
      | None -> false)
  in
  match Pair_tbl.find_opt t.insts pnode i.i_obj with
  | Some pi -> (
    match Int_tbl.find_opt pi.i_granted page with
    | Some grant when not (holds grant) -> Int_tbl.remove pi.i_granted page
    | Some _ | None -> ())
  | None -> ()

(* Restart a fault whose request or answer was lost to a crash.  The
   re-drive bumps the origin's fault generation so any answer to the
   superseded request is dropped instead of double-consuming the
   origin's receive-buffer reservation.  A fault whose outstanding
   entry is gone or superseded has already been answered — nothing to
   recover. *)
let redrive_fault t req =
  let origin = req.r_origin in
  if not (Network.current t.net origin req.r_origin_inc) then ()
  else
    match Pair_tbl.find_opt t.insts origin req.r_origin_obj with
    | None -> ()
    | Some oi -> (
      match Int_tbl.find_opt oi.i_outstanding req.r_page with
      | Some (t0, g) when g = req.r_gen ->
        let gen = oi.i_next_gen in
        oi.i_next_gen <- gen + 1;
        Int_tbl.replace oi.i_outstanding req.r_page (t0, gen);
        count t c_redrive;
        let key = (origin, req.r_origin_obj, req.r_page) in
        if not (Hashtbl.mem t.recovering key) then
          Hashtbl.replace t.recovering key (now t);
        route_request t origin
          {
            req with
            r_obj = req.r_origin_obj;
            r_ring = -1;
            r_directed = -1;
            r_kind = K_fault;
            r_gen = gen;
          }
      | Some _ | None -> ())

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
    | A_pager_offer _ when src_dead ->
      (* A pageout offer from an evictor that died after sending it: its
         page died with it.  Accepting would open a pageout window whose
         grant goes to the node's next incarnation, which ignores it, so
         the window would never close and every lookup for the page
         would wait in it. *)
      ()
    | msg -> handle t dst msg
  end
  else
    let inst_opt obj = Pair_tbl.find_opt t.insts dst obj in
    match msg with
    | A_request req | A_pull req ->
      if req.r_kind = K_push_scan then
        (* [found = false] is the safe answer: it costs at most one
           redundant push, where [true] could skip a needed one *)
        deliver_if_alive t req.r_origin (scan_answer req ~found:false)
      else redrive_fault t req
    | A_reply { origin_obj; page; contents; owner = true; _ } -> (
      (* ownership died in flight to the crashed origin: bank the page
         it carried, or fall back to the pager image or a fresh page *)
      match inst_opt origin_obj with
      | None -> ()
      | Some i ->
        (match contents with
        | Some c -> rescue t i ~page c
        | None -> set_static_hint t i ~page ~hint:(paged_or_fresh i ~page));
        purge_granted t i ~page)
    | A_grant { obj; page; _ } -> (
      (* upgrade grant to a crashed reader: its read copy died with it *)
      match inst_opt obj with
      | None -> ()
      | Some i ->
        count t c_lost_grant;
        set_static_hint t i ~page ~hint:(paged_or_fresh i ~page);
        purge_granted t i ~page)
    | A_invalidate { obj; page; from; _ } ->
      (* a crashed reader holds no copy: acknowledge on its behalf *)
      deliver_if_alive t from (A_inval_ack { obj; page })
    | A_reader_query { obj; page; from; _ } ->
      deliver_if_alive t from (A_reader_answer { obj; page; accepted = false })
    | A_transfer_offer { obj; page; from } ->
      deliver_if_alive t from (A_transfer_answer { obj; page; accepted = false })
    | A_transfer_answer { accepted; _ } ->
      (* the offering owner died; the acceptor's reservation would leak *)
      if accepted && not (Network.is_down t.net src) then
        Sts.release_buffer t.sts ~node:src
    | A_transfer_page { obj; page; contents; _ } -> (
      match inst_opt obj with
      | None -> ()
      | Some i ->
        rescue t i ~page contents;
        purge_granted t i ~page)
    | A_pager_grant { obj; page } ->
      (* the offering owner died; the pager-side reservation would leak,
         and lookups would wait forever on the pageout it announced *)
      Sts.release_buffer t.sts ~node:src;
      close_pageout t src (inst t src obj) page
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
      | Some i -> rescue t i ~page contents);
      deliver_if_alive t from (A_push_ack { home; page })
    | A_reply { owner = false; _ } | A_inval_ack _ | A_owner_update _
    | A_reader_answer _ | A_push_lock_done _ | A_push_ack _ | A_scan_answer _
    | A_retry _ | A_copy_ack _ ->
      (* the state these answer died with the node *)
      ()
    | A_pager_lookup _ | A_pager_offer _ | A_to_pager _ ->
      (* only a pager's node receives these, and it never crashes *)
      ()

(* Give a page the crashed node owned a new owner among its surviving
   readers; with no surviving in-memory copy, fall back to the pager
   image — or, when the pager never saw the page, back to fresh (the
   documented data-loss case, counted in [crash.lost_pages]).  This runs
   at the crash instant, after [crash_node] dropped every grant naming
   the victim: a grant-table entry left for the page names a holder
   that passed ownership on towards the victim, and [purge_granted]
   drops it. *)
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
    become_owner t owner oi ~page ~static_updated:true nps;
    (* the survivor's copy may now be the only one anywhere: make sure
       an eviction writes it back instead of discarding it as clean *)
    Vm.set_frame_dirty t.vms.(owner) ~obj ~page;
    set_static_hint t oi ~page ~hint:(owned_by t owner);
    purge_granted t i ~page
  | [] ->
    let hint = paged_or_fresh i ~page in
    if hint = S_fresh then count t c_lost_page;
    set_static_hint t i ~page ~hint;
    purge_granted t i ~page

let crash_node t ~node =
  Sts.crash_node t.sts ~node;
  (* snapshot the victim's protocol instances *)
  let victims =
    Pair_tbl.fold
      (fun n obj i acc -> if n = node then (obj, i) :: acc else acc)
      t.insts []
  in
  (* requests other nodes had parked at the victim — waiting on its
     in-flight fault, queued at its owner machine, or actively being
     served — restart from their origins; owed answers are synthesized
     so no survivor waits on the dead node.  The victim hosts no pager,
     so no lookup waits in a pageout window there. *)
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
      owed := owed_newest_first i @ !owed;
      Int_tbl.reset i.i_owed_acks)
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
      Pair_tbl.replace t.insts node obj fresh)
    victims;
  (* purge the victim from every survivor's reader lists and grant
     tables: hints are re-verified at use, but reader lists drive
     invalidation rounds that must not wait on a dead node *)
  Pair_tbl.iter
    (fun n _obj i ->
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
            (fun page po acc -> if po.evictor = node then page :: acc else acc)
            i.i_pageouts []
        in
        List.iter (fun page -> close_pageout t n i page) stale_po
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
        Pair_tbl.mem t.insts node obj
        && not (Hashtbl.mem t.recovering (node, obj, page))
      then Hashtbl.replace t.recovering (node, obj, page) (now t))
    (Vm.pending_pages t.vms.(node));
  Vm.redrive_pending t.vms.(node)
