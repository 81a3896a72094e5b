(* Delayed copy's push side (paper 3.7.2): an owner pushes the frozen
   page into every copy before it grants write access. *)

open Asvm_state

let push_op_done i ~page =
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
let push_phase_two t node i ~page ~contents op k =
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
        send t ~src:node ~dst:target
          (A_push_contents { obj = i.i_obj; page; contents; from = node }))
      op.o_need_nodes;
    List.iter
      (fun (copy, peer) ->
        send t ~src:node ~dst:peer
          (A_push_prepare { copy; home = i.i_obj; page; from = node }))
      op.o_need_copies
  end

let run_push_if_needed t node i ps page k =
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

(* The copy messages, received at [node]. *)
let receive t node msg =
  match msg with
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
    let i = inst t node obj in
    Vm.lock_request t.vms.(node) ~obj ~page
      ~op:{ Emmi.max_access = Prot.Read_only; clean = false; mode = Emmi.Lock_push_first }
      ~reply:
        (owe t node i ~dst:from
           (A_push_lock_done { obj; page; from = node; needs_contents = false })
           (fun result ->
             let needs_contents =
               match result with
               | Emmi.Lock_not_present -> Sts.reserve_buffer t.sts ~node
               | Emmi.Lock_done _ -> false
             in
             send t ~src:node ~dst:from
               (A_push_lock_done { obj; page; from = node; needs_contents })))
  | A_push_lock_done { obj; page; from; needs_contents } ->
    let i = inst t node obj in
    (match Int_tbl.find_opt i.i_push_ops page with
    | Some op when needs_contents -> op.o_need_nodes <- from :: op.o_need_nodes
    | Some _ | None -> ());
    push_op_done i ~page
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
    Sts.acquire_buffer t.sts ~node
      (owe t node i ~dst:from (A_push_ack { home; page }) (fun () ->
           send t ~src:node ~dst:from (A_push_ready { copy; home; page })))
  | A_push_ready { copy; home; page } -> (
    let i = inst t node home in
    match Int_tbl.find_opt i.i_push_ops page with
    | Some op -> (
      match op.o_contents with
      | Some contents ->
        let peer =
          match List.assoc_opt copy i.i_copies with Some p -> p | None -> node
        in
        send t ~src:node ~dst:peer
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
    then become_owner t node i ~page ~static_updated:false (new_pstate ~version:0)
    else
      (* no memory at the peer: the frozen page goes to the copy's pager *)
      to_pager t node i ~page ~contents ~dirty:true ignore;
    send t ~src:node ~dst:from (A_push_ack { home; page })
  | A_scan_answer { home; page; copy; found } ->
    let i = inst t node home in
    (match Int_tbl.find_opt i.i_push_ops page with
    | Some op when not found ->
      let peer =
        match List.assoc_opt copy i.i_copies with Some p -> p | None -> node
      in
      op.o_need_copies <- (copy, peer) :: op.o_need_copies
    | Some _ | None -> ());
    push_op_done i ~page
  | _ -> assert false
