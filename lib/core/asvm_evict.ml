(* Internode paging (paper 3.6) as the evicting owner's peers see it:
   reader queries, transfer offers and pages, and the answers. *)

open Asvm_state

(* The boolean answer (reader query, transfer offer, pager offer) the
   owner's pageout continuation for [page] waits on. *)
let answer t node ~obj ~page accepted =
  let i = inst t node obj in
  match Int_tbl.find_opt i.i_answers page with
  | Some k ->
    Int_tbl.remove i.i_answers page;
    k accepted
  | None -> ()

(* The eviction messages, received at [node]. *)
let receive t node msg =
  match msg with
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
      become_owner t node i ~page ~static_updated:false ps;
      send t ~src:node ~dst:from (A_reader_answer { obj; page; accepted = true })
    end
    else begin
      if Int_tbl.mem i.i_outstanding page then
        Int_tbl.replace i.i_revoked page (from, stamp);
      if Vm.is_resident vm ~obj ~page then
        lock_plain vm ~obj ~page Prot.No_access ~reply:ignore;
      send t ~src:node ~dst:from (A_reader_answer { obj; page; accepted = false })
    end
  | A_reader_answer { obj; page; accepted }
  | A_transfer_answer { obj; page; accepted } ->
    answer t node ~obj ~page accepted
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
    send t ~src:node ~dst:from (A_transfer_answer { obj; page; accepted })
  | A_transfer_page { obj; page; contents; dirty; version } ->
    let i = inst t node obj in
    Sts.release_buffer t.sts ~node;
    let vm = t.vms.(node) in
    if
      Vm.try_accept_page vm ~obj ~page ~contents ~dirty ~access:Prot.Read_only
    then become_owner t node i ~page ~static_updated:false (new_pstate ~version)
    else begin
      (* memory vanished since the offer: the page goes on to the pager,
         but this node received ownership all the same and forgets its
         hint, which often names the sender (whose hint names this node) *)
      Hint_cache.remove i.i_dyn ~page;
      to_pager t node i ~page ~contents ~dirty ignore;
      update_static t i ~page ~hint:S_paged
    end
  | A_pager_grant { obj; page } -> answer t node ~obj ~page true
  | _ -> assert false
