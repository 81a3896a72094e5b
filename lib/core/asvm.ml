(* ASVM's public face.  Its mechanisms live in the private Asvm_*
   modules, each calling only those before it (docs/ARCHITECTURE.md). *)

include Asvm_state
open Asvm_forward
open Asvm_dispatch
open Asvm_recovery

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
      counts =
        Array.map
          (fun (_, (name, labels)) -> Metrics.Registry.counter metrics name ~labels)
          count_rows;
      meter =
        Msg_meter.create metrics ?trace
          ~clock:(fun () -> Engine.now (Network.engine net))
          ~proto:"asvm" ~header_bytes:config.sts.Sts.header_bytes ~rows:msg_rows
          ~row_of:row_of_msg ~subject_of:subject_of_msg ();
      trace;
      recovering = Hashtbl.create 16;
      updates = 0;
    }
  in
  Array.iteri (fun node _ -> Sts.register sts ~node (fun msg -> handle t node msg)) vms;
  Sts.set_on_dead_letter sts
    (Some
       (fun ~src ~dst ~src_dead ~dst_dead msg ->
         salvage t ~src ~dst ~src_dead ~dst_dead msg));
  t

let register_object t ~obj ~size_pages ~sharers ~pagers ?forwarding ?shadow ()
    =
  (match pagers with
  | [] -> invalid_arg "Asvm.register_object: at least one pager required"
  | _ -> ());
  let pagers = Array.of_list pagers in
  let fwd =
    Option.value forwarding ~default:{ dynamic = true; static = true }
  in
  let pager_nodes =
    Array.to_list (Array.map Store_pager.node pagers)
    |> List.filter (fun n -> not (List.mem n sharers))
    |> List.sort_uniq compare
  in
  let nodes = sharers @ pager_nodes in
  List.iter
    (fun node ->
      Pair_tbl.replace t.insts node obj
        (make_inst t ~node ~obj ~size_pages ~sharers ~pagers ~fwd ~shadow))
    nodes;
  (* EMMI manager proxy for each sharer's kernel *)
  List.iter
    (fun node ->
      let request ~page ~desired ~upgrade =
        let i = inst t node obj in
        (* one request per page at a time: a second kernel request
           (e.g. a write upgrade behind a read fault) is answered by the
           kernel's own retry after the first reply lands — a duplicate
           in-flight request could overwrite owner state built
           meanwhile *)
        if not (Network.is_down t.net node || Int_tbl.mem i.i_outstanding page)
        then start_fault t node i ~page ~want:desired ~upgrade
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

let crash_node = Asvm_recovery.crash_node
let rejoin_node = Asvm_recovery.rejoin_node

(* Announce a change to [src]'s copy configuration from [peer] to every
   sharer, [peer] included; [k] runs once all of them acknowledged. *)
let announce_copy t ~src ~peer k msg =
  let i = inst t peer src in
  i.i_copy_acks <- Array.length i.i_sharers;
  i.i_copy_k <- k;
  Array.iter (fun node -> send t ~src:peer ~dst:node msg) i.i_sharers

let object_copied t ~src ~peer ~shared k =
  let new_version = (inst t peer src).i_version + 1 in
  announce_copy t ~src ~peer k
    (A_copy_made { obj = src; peer; shared; new_version; from = peer })

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
  announce_copy t ~src ~peer k (A_copy_shared { obj = src; copy; peer; from = peer })

let claim_residents t ~node ~obj =
  let i = inst t node obj in
  match Vm.find_object t.vms.(node) obj with
  | None -> ()
  | Some o ->
    List.iter
      (fun page ->
        if not (Int_tbl.mem i.i_pages page) then
          become_owner t node i ~page ~static_updated:false
            (new_pstate ~version:i.i_version))
      (Asvm_machvm.Vm_object.resident_pages o)

let owner_entries t ~node ~obj =
  match Pair_tbl.find_opt t.insts node obj with
  | Some i -> Int_tbl.length i.i_pages
  | None -> 0

(* rough per-entry sizes of the real structures: an owner entry is a
   reader list head + version + flags (~32 B); a hint is a page/node
   pair (~16 B); the seen bitmap is 1 bit per page *)
let state_bytes t ~node ~obj =
  match Pair_tbl.find_opt t.insts node obj with
  | Some i ->
    (32 * Int_tbl.length i.i_pages)
    + (16 * Hint_cache.size i.i_dyn)
    + (16 * Hint_cache.size i.i_static)
    + ((i.i_size + 7) / 8)
  | None -> 0

let is_owner t ~node ~obj ~page =
  match Pair_tbl.find_opt t.insts node obj with
  | Some i -> Int_tbl.mem i.i_pages page
  | None -> false

let readers t ~obj ~page =
  let found = ref None in
  Pair_tbl.iter
    (fun _node o i ->
      if o = obj then
        match Int_tbl.find_opt i.i_pages page with
        | Some ps -> found := Some ps.p_readers
        | None -> ())
    t.insts;
  !found

let owned_pages t ~obj =
  Pair_tbl.fold
    (fun _node o i acc ->
      if o = obj then Int_tbl.fold (fun page _ acc -> page :: acc) i.i_pages acc
      else acc)
    t.insts []
  |> List.sort_uniq compare

let check_invariants ?pages t =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* group instances per object *)
  let objects = Hashtbl.create 32 in
  Pair_tbl.iter
    (fun node obj i ->
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
      (* a page no instance owns and no instance's node holds has no
         owner state and no frame to check *)
      let pages =
        match pages with
        | Some pages -> pages ~obj ~size
        | None ->
          Vm_object.pages_marked ~size (fun mark ->
              List.iter
                (fun (node, i) ->
                  Int_tbl.iter (fun page _ -> mark page) i.i_pages;
                  match Vm.find_object t.vms.(node) obj with
                  | Some o -> Int_tbl.iter (fun page _ -> mark page) o.resident
                  | None -> ())
                insts)
      in
      List.iter (fun page ->
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
          owners)
        pages;
      (* kernel-level single writer: write access implies ownership *)
      List.iter
        (fun (node, i) ->
          List.iter
            (fun page ->
              match Vm.frame_access t.vms.(node) ~obj ~page with
              | Some Prot.Read_write when not (Int_tbl.mem i.i_pages page) ->
                bad
                  "obj#%d page %d: node %d has write access without ownership"
                  obj page node
              | Some _ | None -> ())
            pages;
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
          Int_tbl.iter
            (fun page po ->
              if po.waiting <> [] then
                bad
                  "obj#%d: node %d holds %d lookups for page %d behind a \
                   pageout from node %d"
                  obj node (List.length po.waiting) page po.evictor)
            i.i_pageouts;
          if Int_tbl.length i.i_push_ops > 0 then
            bad "obj#%d: node %d has unfinished push operations" obj node;
          if Int_tbl.length i.i_answers > 0 then
            bad "obj#%d: node %d awaits unanswered queries" obj node)
        insts)
    objects;
  List.rev !violations
