(* The message dispatcher: faults, their answers and invalidations
   (paper 3.3-3.5) are served here, other messages by their mechanism. *)

open Asvm_state
open Asvm_pager_role
open Asvm_forward

(* A generation-checked answer to a superseded request: the re-driven
   fault still holds this node's receive-buffer reservation, so the
   stale answer must not consume it. *)
let superseded i ~page ~gen =
  match Int_tbl.find_opt i.i_outstanding page with
  | Some (_, g) -> g <> gen
  | None -> true

(* Start this node's fault for [page]: a fresh generation, the
   outstanding entry an authority can designate, and a receive-buffer
   reservation before routing.  A write upgrade of a page this node
   owns takes one too: ownership can leave while it queues, and the
   request then leaves the node and its answer carries a page. *)
let start_fault t node i ~page ~want ~upgrade =
  let gen = i.i_next_gen in
  i.i_next_gen <- gen + 1;
  Int_tbl.replace i.i_outstanding page (now t, gen);
  Sts.acquire_buffer t.sts ~node (fun () ->
      route_request t node
        (fault_request t ~node ~obj:i.i_obj ~page ~want ~upgrade ~gen))

let handle_pull t node req =
  (* Executed on the peer node of a copy object: walk the local shadow
     chain with the extended EMMI pull call (figure 9). *)
  let vm = t.vms.(node) in
  Vm.pull_request vm ~obj:req.r_obj ~page:req.r_page ~reply:(fun result ->
      match result with
      | Emmi.Pull_contents contents ->
        send t ~src:node ~dst:req.r_origin
          (handover ~node req ~updated:false (Some contents))
      | Emmi.Pull_zero_fill ->
        send t ~src:node ~dst:req.r_origin (handover ~node req ~updated:false None)
      | Emmi.Pull_ask_shadow shadow_obj ->
        (* continue the search in the shadow object's SVM space *)
        req.r_obj <- shadow_obj;
        req.r_ring <- -1;
        let req = { req with r_kind = K_pull } in
        route_request t node req)

let handle t node msg =
  match msg with
  | A_request req -> route_request t node req
  | A_pull req -> handle_pull t node req
  | A_pager_lookup req ->
    let i = inst t node req.r_obj in
    pager_lookup t node i req
  | A_reply
      { origin_obj; page; contents; grant; owner; version; dirty; from; updated;
        gen; stamp } ->
    let i = inst t node origin_obj in
    let revoked =
      (not owner)
      &&
      match Int_tbl.find_opt i.i_revoked page with
      | Some (revoker, s) -> revoker = from && stamp < s
      | None -> false
    in
    if superseded i ~page ~gen then count t c_stale_reply
    else if revoked then begin
      (* a read grant overtaken on the wire by its owner's invalidation
         (or reader query): the owner no longer lists this node, so the
         copy is dropped and the fault asks again, keeping its
         generation and its receive-buffer reservation *)
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
      complete_fault t node i ~page ~ownership:owner;
      let c = match contents with Some c -> c | None -> zero t in
      (* A write grant that did not come from a previous owner (pager
         supply, zero fill, pull through the shadow chain) has not been
         through the push machinery. If copies exist that the page has
         not been pushed to, grant read-only: the kernel's upgrade fault
         then re-enters the owner state machine here, which runs the
         push before write access is given (3.7.2). *)
      let effective_grant =
        if owner && Prot.equal grant Prot.Read_write && version < i.i_version
        then Prot.Read_only
        else grant
      in
      Vm.data_supply t.vms.(node) ~obj:origin_obj ~page ~contents:c
        ~lock:effective_grant ~mode:Emmi.Supply_normal;
      if owner then begin
        if dirty then Vm.set_frame_dirty t.vms.(node) ~obj:origin_obj ~page;
        become_owner t node i ~page ~static_updated:updated (new_pstate ~version)
      end
      else Hint_cache.put i.i_dyn ~page from;
      drain_inbound t node i page
    end
  | A_grant { obj; page; version; gen } ->
    let i = inst t node obj in
    if superseded i ~page ~gen then count t c_stale_reply
    else begin
      complete_fault t node i ~page ~ownership:true;
      if Vm.is_resident t.vms.(node) ~obj ~page then begin
        lock_plain t.vms.(node) ~obj ~page Prot.Read_write ~reply:ignore;
        (* the granting owner already updated the static manager *)
        become_owner t node i ~page ~static_updated:true (new_pstate ~version);
        drain_inbound t node i page
      end
      else
        (* the read copy vanished while the grant was in flight: fault
           the page in afresh *)
        start_fault t node i ~page ~want:Prot.Read_write ~upgrade:false
    end
  | A_invalidate { obj; page; new_owner; from; stamp } ->
    (* transition 8.  The ack waits on an async kernel call (a crashed
       node holds no copy either way). *)
    let i = inst t node obj in
    if Int_tbl.mem i.i_outstanding page then
      Int_tbl.replace i.i_revoked page (from, stamp);
    let ack = A_inval_ack { obj; page } in
    lock_plain t.vms.(node) ~obj ~page Prot.No_access ~reply:
        (owe t node i ~dst:from ack (fun _ ->
             Hint_cache.put i.i_dyn ~page new_owner;
             send t ~src:node ~dst:from ack))
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
  | A_owner_update { obj; page; hint; seq } ->
    record_static (inst t node obj) ~page ~seq hint
  | A_reader_query _ | A_reader_answer _ | A_transfer_offer _
  | A_transfer_answer _ | A_transfer_page _ | A_pager_grant _ ->
    Asvm_evict.receive t node msg
  | A_pager_offer _ | A_to_pager _ -> Asvm_pager_role.receive t node msg
  | A_copy_made _ | A_copy_shared _ | A_copy_ack _ | A_push_lock _
  | A_push_lock_done _ | A_push_contents _ | A_push_ack _ | A_push_prepare _
  | A_push_ready _ | A_push_to_copy _ | A_scan_answer _ ->
    Asvm_push.receive t node msg
  | A_retry { origin_obj; page; want; upgrade; gen } ->
    (* the fault is still in flight, with its generation and its
       receive-buffer reservation: route it again from here *)
    count t c_copy_retry;
    route_request t node
      (fault_request t ~node ~obj:origin_obj ~page ~want ~upgrade ~gen)
