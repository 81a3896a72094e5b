(* A pager's node (paper 3.4, 3.6): lookups when no owner is known, the
   grant table and the windows of dirty pageouts in flight. *)

open Asvm_state

(* The page was never written anywhere: grant a zero-filled page. *)
let conclude_fresh t node i req =
  match req.r_kind with
  | K_push_scan -> send t ~src:node ~dst:req.r_origin (scan_answer req ~found:false)
  | K_fault | K_pull ->
    count t c_zero_grant;
    let claim = req.r_kind = K_fault in
    if claim then begin
      if node = Store_pager.node (pager_of i req.r_page) then
        Int_tbl.replace i.i_granted req.r_page (req.r_origin, req.r_gen);
      update_static t i ~page:req.r_page ~hint:(claimed_for req)
    end;
    send t ~src:node ~dst:req.r_origin (handover ~node req ~updated:claim None)

let supply_lookup t node i req =
  match Int_tbl.find_opt i.i_granted req.r_page with
  | Some (holder, gen)
    when req.r_kind <> K_push_scan && holder <> req.r_origin
         && not (Network.is_down t.net holder) ->
    (* the pager already handed this page to someone: chase the holder
       instead of creating a second owner.  Leave sweep mode and
       designate the fault the pager supplied — the chased request must
       be allowed to park behind exactly that in-flight fault rather
       than sweep past it forever. *)
    req.r_ring <- -1;
    req.r_directed <- gen;
    send t ~src:node ~dst:holder (A_request req)
  | Some _ | None ->
  if Store_pager.has (pager_of i req.r_page) ~obj:req.r_obj ~page:req.r_page
  then begin
    match req.r_kind with
    | K_push_scan ->
      (* the copy object's page lives at the pager: push unnecessary *)
      send t ~src:node ~dst:req.r_origin (scan_answer req ~found:true)
    | K_fault | K_pull ->
      count t c_pager_supply;
      let claim = req.r_kind = K_fault in
      if claim then
        Int_tbl.replace i.i_granted req.r_page (req.r_origin, req.r_gen);
      Store_pager.request (pager_of i req.r_page) ~obj:req.r_obj ~page:req.r_page ~words:t.wpp
        (fun contents ->
          if claim then
            update_static t i ~page:req.r_page ~hint:(claimed_for req);
          send t ~src:node ~dst:req.r_origin
            (handover ~node req ~updated:claim (Some contents)))
  end
  else
    match req.r_kind with
    | K_push_scan -> send t ~src:node ~dst:req.r_origin (scan_answer req ~found:false)
    | K_fault | K_pull -> (
      match i.i_shadow with
      | Some (_src, peer) ->
        (* a copy object with no owner and nothing paged: walk the
           shadow chain on the peer node (figure 9); pulls continue
           stage by stage until the end of the chain *)
        count t c_pull;
        send t ~src:node ~dst:peer (A_pull req)
      | None -> conclude_fresh t node i req)

(* Executed on the pager's node. *)
let rec pager_lookup t node i req =
  if request_stale t req then drop_stale t node req
  else
  match Int_tbl.find_opt i.i_pageouts req.r_page with
  | Some po when not (Network.is_down t.net po.evictor) ->
    (* a dirty pageout of this page is in flight to the store: wait for
       it rather than supplying the stale pre-eviction image *)
    note_request t ~node ~category:"asvm.pageout_wait" req;
    po.waiting <- req :: po.waiting
  | Some _ ->
    (* the evictor died inside the window; its contents either died
       with it or dead-letter into the store — stop waiting *)
    close_pageout t node i req.r_page;
    supply_lookup t node i req
  | None -> supply_lookup t node i req

(* The pageout window on [page] closed: its contents reached the store,
   or its evictor died.  The lookups that waited in it run again as
   fresh events, in arrival order. *)
and close_pageout t node i page =
  match Int_tbl.find_opt i.i_pageouts page with
  | None -> ()
  | Some po ->
    Int_tbl.remove i.i_pageouts page;
    List.iter
      (fun req ->
        Engine.schedule (Network.engine t.net) ~delay:0. (fun () ->
            pager_lookup t node (inst t node req.r_obj) req))
      (List.rev po.waiting)

let to_pager_lookup t node i req =
  let pnode = Store_pager.node (pager_of i req.r_page) in
  if pnode = node then pager_lookup t node i req
  else send t ~src:node ~dst:pnode (A_pager_lookup req)

(* The pageout messages the pager's node receives. *)
let receive t node msg =
  match msg with
  | A_pager_offer { obj; page; from } ->
    (* the grant may wait for a receive buffer.  An evictor that
       crashed and rejoined during the wait is a new incarnation that
       never made the offer and would ignore the grant: its page died
       with the old one, so the credit goes back and no pageout window
       opens.  The pager's node never crashes, so it owes nothing *)
    let i = inst t node obj in
    let from_inc = Network.incarnation t.net from in
    Sts.acquire_buffer t.sts ~node (fun () ->
        if rejoined t from from_inc then Sts.release_buffer t.sts ~node
        else begin
          (match Int_tbl.find_opt i.i_pageouts page with
          | Some po -> po.evictor <- from
          | None -> Int_tbl.add i.i_pageouts page { evictor = from; waiting = [] });
          send t ~src:node ~dst:from (A_pager_grant { obj; page })
        end)
  | A_to_pager { obj; page; contents } -> (
    let i = inst t node obj in
    Int_tbl.remove i.i_granted page;
    close_pageout t node i page;
    match contents with
    | Some c ->
      Sts.release_buffer t.sts ~node;
      Store_pager.store_async (pager_of i page) ~obj ~page ~contents:c
    | None ->
      if not (Store_pager.has (pager_of i page) ~obj ~page) then
        (* a clean page that was never stored reverts to fresh *)
        update_static t i ~page ~hint:S_fresh)
  | _ -> assert false
