(* Request forwarding (paper 3.2-3.4), the owner state machine (3.5,
   figure 7) and the owner's side of eviction (3.6): one recursion. *)

open Asvm_state
open Asvm_push
open Asvm_pager_role

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

(* This node's fault for [page] is answered: give back its receive
   buffer and, unless the fault was granted locally ([~timed:false]),
   sample its latency into the registry; when the fault was in crash
   recovery (re-driven after a dead letter or a rejoin), also sample the
   recovery-latency histogram. *)
let complete_fault ?(timed = true) t node i ~page ~ownership =
  Sts.release_buffer t.sts ~node;
  (match Int_tbl.find_opt i.i_outstanding page with
  | Some (t0, _gen) when timed ->
    Msg_meter.fault t.meter ~ownership (now t -. t0)
  | Some _ | None -> ());
  (match Hashtbl.find_opt t.recovering (i.i_node, i.i_obj, page) with
  | None -> ()
  | Some t0 ->
    Hashtbl.remove t.recovering (i.i_node, i.i_obj, page);
    Msg_meter.recovery t.meter (now t -. t0));
  Int_tbl.remove i.i_outstanding page;
  Int_tbl.remove i.i_revoked page

(* A foreign fault reaching a node that neither owns the page nor is
   told by an authority that its in-flight fault is the next owner:
   parking it here could close a cycle (this node's own request may be
   parked at the foreign origin), so it parks only when [r_directed]
   names exactly that fault.  Anything else goes to the page's static
   manager, whose table orders concurrent faulters; when this node is
   that manager, [consult_static] decides at once. *)
let rec route_request t node req =
  if request_stale t req then drop_stale t node req
  else
  let i = inst t node req.r_obj in
  match Int_tbl.find_opt i.i_pages req.r_page with
  | Some ps -> owner_handle t node i ps req
  | None ->
    let gen = parkable_gen i node req in
    if gen >= 0 && gen = req.r_directed then park_request t node i req
    else forward_request ~dynamic:(gen < 0) t node i req

(* Every forwarding hop clears [r_directed]; only [consult_static]'s
   static hit, [pager_lookup]'s chase and [finish_owner_op] set it.
   [~dynamic:false] skips this node's dynamic hint.  The page's static
   manager never reads its dynamic hint while static forwarding is on:
   it routes by its table, which a stale hint of its own could only
   contradict (DESIGN.md, section 7). *)
and forward_request ?(dynamic = true) t node i req =
  req.r_directed <- -1;
  if req.r_ring >= 0 then sweep_step t node i req
  else begin
    let sm = static_mgr i req.r_page in
    let hint =
      if dynamic && i.i_fwd.dynamic && not (i.i_fwd.static && sm = node) then
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
        if Network.is_down t.net sm then
          (* the page's static manager is down: its hint table is gone,
             only the ring sweep can find a surviving owner *)
          start_sweep t node i req ~reason:"manager_down"
        else if sm <> node then begin
          count t c_to_static;
          send t ~src:node ~dst:sm (A_request req)
        end
        else consult_static t node i req
      end
      else start_sweep t node i req ~reason:"static_off"
  end

and consult_static t node i req =
  (* When a fault leaves for the pager (or is zero-granted), its origin
     is about to become the owner: record that now so that simultaneous
     requests for the same page chase the origin instead of each being
     granted an owner by the pager.  A pull searches a shadow object on
     behalf of its origin object, whose page its answer fills: the
     origin never owns the shadow's page, so a pull claims nothing.  A
     claim is this manager's guess, not news: it keeps the number of the
     entry it replaces, so the pager's or an owner's update made
     meanwhile still overrides it. *)
  let claim_for_origin ~seq =
    if req.r_kind = K_fault then
      record_static i ~page:req.r_page ~seq (claimed_for req)
  in
  match Hint_cache.find i.i_static ~page:req.r_page with
  | Some (S_at { owner; inc; gen }, _)
    when req.r_kind = K_fault && owner = req.r_origin && inc = req.r_origin_inc
         && gen = req.r_gen ->
    (* the fault's own claim (only faults claim): it went to the pager
       once, and the pager chased it to an earlier holder whose pageout
       is still on its way back (paper 3.6 step 4) — ask the pager
       again *)
    count t c_paged_hint;
    to_pager_lookup t node i req
  | Some (S_at { owner = target; inc; gen }, _)
    when target <> node && Network.current t.net target inc ->
    count t c_static_hit;
    req.r_directed <- gen;
    send t ~src:node ~dst:target (A_request req)
  | Some (S_at { owner; inc; gen }, _)
    when owner = node && Network.current t.net node inc && gen >= 0
         && gen = parkable_gen i node req ->
    (* the table designates this manager's own in-flight fault *)
    park_request t node i req
  | Some (S_fresh, seq) ->
    count t c_fresh_hint;
    claim_for_origin ~seq;
    conclude_fresh t node i req
  | Some (S_paged, seq) ->
    count t c_paged_hint;
    claim_for_origin ~seq;
    to_pager_lookup t node i req
  | Some (S_at { owner; inc; _ }, _) ->
    (* the table names this manager, which neither owns the page nor
       is designated for it, or a node that is down or has crashed
       since *)
    start_sweep t node i req
      ~reason:
        (if owner = node && Network.current t.net node inc then "self_entry"
         else "dead_entry")
  | None ->
    if Bytes.get i.i_seen req.r_page = '\000' then begin
      (* the page never had an owner: only the pager (or, for a copy
         object, the shadow chain behind it) can have data *)
      claim_for_origin ~seq:0;
      to_pager_lookup t node i req
    end
    else start_sweep t node i req ~reason:"no_entry"

(* The last resort (paper 3.4): walk the ring of sharers.  [reason]
   names which of the static manager's shortcomings left nothing else —
   down, static forwarding off for the object, or no usable table entry
   — in the request's [asvm.sweep] note. *)
and start_sweep t node i req ~reason =
  count t c_global_sweep;
  note_request t ~node ~category:"asvm.sweep" ~reason req;
  req.r_ring <- node;
  sweep_step t node i req

and sweep_step t node i req =
  match ring_next t i ~node ~stop:req.r_ring with
  | Some next -> send t ~src:node ~dst:next (A_request req)
  | None ->
    (* no owner anywhere *)
    req.r_ring <- -1;
    to_pager_lookup t node i req

(* ------------------------------------------------------------------ *)
(* Owner-side state machine (paper 3.5, figure 7)                     *)
(* ------------------------------------------------------------------ *)

and owner_handle t node i ps req =
  match req.r_kind with
  | K_push_scan ->
    (* an owner exists in the copy object: the push can be cancelled *)
    send t ~src:node ~dst:req.r_origin (scan_answer req ~found:true)
  | K_pull ->
    if ps.p_pushing then Queue.push req ps.p_retries
    else reply_pull t node req
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
and reply_pull t node req =
  match Vm.frame_contents t.vms.(node) ~obj:req.r_obj ~page:req.r_page with
  | Some contents ->
    send t ~src:node ~dst:req.r_origin
      (handover ~node req ~updated:false (Some contents))
  | None ->
    (* owner invariant violated only transiently; treat as not found *)
    forward_request t node (inst t node req.r_obj) req

(* Transition 5: the owner grants read access and enters the requester
   into its reader list. The owner's own write permission is revoked
   {e before} the contents are captured — single writer or multiple
   readers, never both. *)
and owner_read_grant t node i ps req =
  let vm = t.vms.(node) in
  lock_plain vm ~obj:req.r_obj ~page:req.r_page Prot.Read_only ~reply:(fun _ ->
      match Vm.frame_contents vm ~obj:req.r_obj ~page:req.r_page with
      | None ->
        finish_owner_op t node i ps req.r_page ~moved_to:None;
        forward_request t node i req
      | Some contents ->
        add_reader ps req.r_origin;
        i.i_stamp <- i.i_stamp + 1;
        send t ~src:node ~dst:req.r_origin
          (reply ~node req ~grant:Prot.Read_only ~owner:false
             ~version:ps.p_version ~dirty:false ~updated:false
             ~stamp:i.i_stamp (Some contents));
        finish_owner_op t node i ps req.r_page ~moved_to:(Some node))

(* Transitions 4/6/7: write access moves ownership to the requester,
   after pushing to copies and invalidating all read copies. *)
and owner_write_grant t node i ps req =
  let page = req.r_page in
  run_push_if_needed t node i ps page (fun () ->
      invalidate_readers t node i ps ~page ~except:req.r_origin (fun () ->
          let vm = t.vms.(node) in
          if req.r_origin = node then begin
            (* transition 7: local upgrade; ownership stays here, and
               the fault completes without a reply, untimed (the fault
               histograms time answers from other nodes).  Its
               receive-buffer reservation, held in case the request had
               to leave the node, goes back unused. *)
            complete_fault ~timed:false t node i ~page ~ownership:true;
            lock_plain vm ~obj:req.r_obj ~page Prot.Read_write ~reply:ignore;
            finish_owner_op t node i ps page ~moved_to:(Some node);
            drain_inbound t node i page
          end
          else if request_stale t req then begin
            (* the origin crashed while the write was being prepared:
               granting now would hand ownership to a fault that no
               longer exists, so the page stays here *)
            drop_stale t node req;
            finish_owner_op t node i ps page ~moved_to:(Some node)
          end
          else
            (* revoke our own write permission before capturing the
               contents, so no local write slips past the transfer *)
            lock_plain vm ~obj:req.r_obj ~page Prot.Read_only ~reply:(fun _ ->
                count t c_ownership_transfer;
                let was_reader = List.mem req.r_origin ps.p_readers in
                if req.r_upgrade && was_reader then
                  send t ~src:node ~dst:req.r_origin
                    (A_grant
                       { obj = req.r_obj; page; version = ps.p_version; gen = req.r_gen })
                else begin
                  let contents =
                    match Vm.frame_contents vm ~obj:req.r_obj ~page with
                    | Some c -> c
                    | None -> zero t
                  in
                  let dirty = Vm.frame_dirty vm ~obj:req.r_obj ~page in
                  send t ~src:node ~dst:req.r_origin
                    (reply ~node req ~grant:Prot.Read_write ~owner:true
                       ~version:ps.p_version ~dirty ~updated:true ~stamp:0
                       (Some contents))
                end;
                (* the old owner flushes its own copy: single writer *)
                Vm.unwire vm ~obj:req.r_obj ~page;
                lock_plain vm ~obj:req.r_obj ~page Prot.No_access ~reply:ignore;
                Hint_cache.put i.i_dyn ~page req.r_origin;
                update_static t i ~page ~hint:(claimed_for req);
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
             gen = req.r_gen;
           }))
    ps.p_retries;
  Queue.clear ps.p_retries

(* Requests that parked here while our own fault was in flight are
   re-routed once ownership (and the frame) have landed. *)
and drain_inbound t node i page =
  match Int_tbl.find_opt i.i_waiting_inbound page with
  | None -> ()
  | Some q ->
    Int_tbl.remove i.i_waiting_inbound page;
    let vm = t.vms.(node) in
    let delay = 2. *. (Vm.config vm).Asvm_machvm.Vm_config.emmi_call_ms in
    Queue.iter
      (fun req -> Engine.schedule (Vm.engine vm) ~delay (fun () -> route_request t node req))
      q

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
            send t ~src:node ~dst:target
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

(* Step 4: return the page to the memory object's pager. *)
and pageout_to_pager t node i ps ~page ~contents ~dirty =
  count t c_pageout_to_pager;
  to_pager t node i ~page ~contents ~dirty (fun () ->
      update_static t i ~page ~hint:S_paged;
      finish_owner_op t node i ps page ~moved_to:None)
