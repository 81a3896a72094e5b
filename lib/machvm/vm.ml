module Engine = Asvm_simcore.Engine
module Int_tbl = Asvm_simcore.Int_tbl
module Pair_tbl = Asvm_simcore.Pair_tbl

type task_rec = { id : Ids.task_id; amap : Address_map.t; pmap : Pmap.t }

type pending = {
  mutable desired : Prot.t;
  mutable waiters : (unit -> unit) list;
}

(* Per-fault context: tracks whether the fault ever left the node, for the
   local/remote fault statistics. *)
type fault_ctx = { mutable went_to_manager : bool }

type t = {
  engine : Engine.t;
  node : int;
  config : Vm_config.t;
  backing : Backing.t;
  ids : Ids.Alloc.t;
  objects : Vm_object.t Int_tbl.t;
  tasks : task_rec Int_tbl.t;
  (* (object, page) -> set of (task, vpage) translations backed by it *)
  reverse : unit Pair_tbl.t Pair_tbl.t;
  pending : pending Pair_tbl.t;
  (* pages of temporary objects that live in the default pager's store *)
  swapped : unit Pair_tbl.t;
  fifo : (Ids.obj_id * int) Queue.t;
  mutable resident_total : int;
  mutable faults : int;
  mutable local_faults : int;
  mutable evictions : int;
  (* watermark pageout daemon (docs/SERVING.md): at most one scan is in
     flight; [pageout_armed] is the wakeup latch *)
  mutable pageout_armed : bool;
  mutable pageout_runs : int;
  mutable pageout_evictions : int;
}

let create ~engine ~node ~config ~backing ~ids =
  {
    engine;
    node;
    config;
    backing;
    ids;
    objects = Int_tbl.create 64;
    tasks = Int_tbl.create 8;
    reverse = Pair_tbl.create 256;
    pending = Pair_tbl.create 32;
    swapped = Pair_tbl.create 64;
    fifo = Queue.create ();
    resident_total = 0;
    faults = 0;
    local_faults = 0;
    evictions = 0;
    pageout_armed = false;
    pageout_runs = 0;
    pageout_evictions = 0;
  }

let engine t = t.engine
let node t = t.node
let config t = t.config

(* ------------------------------------------------------------------ *)
(* Objects                                                            *)
(* ------------------------------------------------------------------ *)

let create_object t ~id ~size_pages ~temporary =
  if Int_tbl.mem t.objects id then
    invalid_arg "Vm.create_object: id already present on this node";
  let o = Vm_object.create ~id ~size_pages ~temporary () in
  Int_tbl.add t.objects id o;
  o

let find_object t id = Int_tbl.find_opt t.objects id

let get_object t id =
  match find_object t id with
  | Some o -> o
  | None ->
    failwith
      (Printf.sprintf "Vm.get_object: node %d has no representation of obj#%d"
         t.node id)

let set_manager t id manager = (get_object t id).Vm_object.manager <- manager

let task_rec t task =
  match Int_tbl.find_opt t.tasks task with
  | Some tr -> tr
  | None -> failwith (Printf.sprintf "Vm: unknown task#%d on node %d" task t.node)

(* ------------------------------------------------------------------ *)
(* Reverse map and translation maintenance                            *)
(* ------------------------------------------------------------------ *)

let add_reverse t obj index task vpage =
  let set =
    match Pair_tbl.find_opt t.reverse obj index with
    | Some s -> s
    | None ->
      let s = Pair_tbl.create 4 in
      Pair_tbl.add t.reverse obj index s;
      s
  in
  Pair_tbl.replace set task vpage ()

let remove_translations t obj index =
  match Pair_tbl.find_opt t.reverse obj index with
  | None -> ()
  | Some set ->
    Pair_tbl.iter
      (fun task vpage () ->
        match Int_tbl.find_opt t.tasks task with
        | Some tr -> Pmap.remove tr.pmap ~vpage
        | None -> ())
      set;
    Pair_tbl.remove t.reverse obj index

let downgrade_translations t obj index =
  match Pair_tbl.find_opt t.reverse obj index with
  | None -> ()
  | Some set ->
    Pair_tbl.iter
      (fun task vpage () ->
        match Int_tbl.find_opt t.tasks task with
        | Some tr -> (
          match Pmap.lookup tr.pmap ~vpage with
          | Some trn -> trn.prot <- Prot.min trn.prot Prot.Read_only
          | None -> ())
        | None -> ())
      set

(* ------------------------------------------------------------------ *)
(* Residency, eviction                                                *)
(* ------------------------------------------------------------------ *)

let resident_total t = t.resident_total
let free_pages t = t.config.memory_pages - t.resident_total

let frame_of t obj index =
  match find_object t obj with
  | Some o -> Vm_object.frame o index
  | None -> None

let is_resident t ~obj ~page = Option.is_some (frame_of t obj page)

let frame_access t ~obj ~page =
  Option.map (fun (fr : Vm_object.frame) -> fr.access) (frame_of t obj page)

let frame_contents t ~obj ~page =
  Option.map
    (fun (fr : Vm_object.frame) -> Contents.snapshot fr.contents)
    (frame_of t obj page)

let frame_dirty t ~obj ~page =
  match frame_of t obj page with Some fr -> fr.dirty | None -> false

(* checksums the frame in place — no handle allocation, and the memo
   on the frame's buffer survives, so repeated audits of a quiescent
   page are cache hits *)
let frame_checksum t ~obj ~page =
  Option.map
    (fun (fr : Vm_object.frame) -> Contents.checksum fr.contents)
    (frame_of t obj page)

let wake t obj page =
  match Pair_tbl.find_opt t.pending obj page with
  | None -> ()
  | Some p ->
    Pair_tbl.remove t.pending obj page;
    List.iter (fun k -> Engine.schedule t.engine ~delay:0. k) p.waiters

let evict_frame t (o : Vm_object.t) index (fr : Vm_object.frame) =
  t.evictions <- t.evictions + 1;
  remove_translations t o.id index;
  Vm_object.remove o ~page:index;
  t.resident_total <- t.resident_total - 1;
  match o.manager with
  | Some m ->
    Engine.schedule t.engine ~delay:t.config.emmi_call_ms (fun () ->
        m.m_data_return ~page:index ~contents:fr.contents ~dirty:fr.dirty)
  | None ->
    if fr.dirty && o.temporary then begin
      Pair_tbl.replace t.swapped o.id index ();
      t.backing.store ~obj:o.id ~page:index ~contents:fr.contents ~k:ignore
    end
(* clean pages are re-derivable: zero-fill, the shadow chain, or the
   backing store already holds them *)

let evict_one t =
  let attempts = Queue.length t.fifo in
  let rec loop n =
    if n <= 0 then false
    else
      match Queue.take_opt t.fifo with
      | None -> false
      | Some (oid, index) -> (
        match frame_of t oid index with
        | None -> loop (n - 1)
        | Some fr ->
          if fr.wired then begin
            Queue.push (oid, index) t.fifo;
            loop (n - 1)
          end
          else begin
            evict_frame t (get_object t oid) index fr;
            true
          end)
  in
  loop attempts


let ensure_capacity t =
  while t.resident_total > t.config.memory_pages && evict_one t do
    ()
  done

(* Watermark pageout daemon (docs/SERVING.md): when an allocation drops
   free memory to the low watermark, one scan is scheduled after
   [pageout_scan_delay_ms]; the scan evicts back up to the high
   watermark.  The daemon is woken only by allocations, never by
   itself, so a node whose every frame is wired cannot livelock —
   the next allocation re-arms it. *)
let pageout_scan t () =
  t.pageout_armed <- false;
  if
    t.config.pageout_low_pages > 0
    && free_pages t <= t.config.pageout_low_pages
  then begin
    t.pageout_runs <- t.pageout_runs + 1;
    let progress = ref true in
    while !progress && free_pages t < t.config.pageout_high_pages do
      if evict_one t then t.pageout_evictions <- t.pageout_evictions + 1
      else progress := false
    done
  end

let maybe_wake_pageout t =
  if
    t.config.pageout_low_pages > 0
    && (not t.pageout_armed)
    && free_pages t <= t.config.pageout_low_pages
  then begin
    t.pageout_armed <- true;
    Engine.schedule t.engine ~delay:t.config.pageout_scan_delay_ms
      (pageout_scan t)
  end

let install_frame t (o : Vm_object.t) index contents ~dirty ~access =
  match Vm_object.frame o index with
  | Some fr ->
    fr.contents <- contents;
    fr.dirty <- dirty;
    fr.access <- access;
    fr
  | None ->
    let fr : Vm_object.frame = { contents; dirty; access; wired = false } in
    Vm_object.install o ~page:index fr;
    t.resident_total <- t.resident_total + 1;
    Queue.push (o.id, index) t.fifo;
    ensure_capacity t;
    maybe_wake_pageout t;
    fr

let try_accept_page t ~obj ~page ~contents ~dirty ~access =
  (* A page a parked fault is waiting for is never bounced for lack of
     memory: one synchronous eviction (the fault path's [ensure_capacity]
     backstop) makes room, so the fault completes here instead of
     detouring through the pager.  Pure placement traffic — internode
     pageout, push-to-copy — still answers [false] when full; that
     refusal is what lets the 4-step eviction algorithm converge on the
     pager when the whole machine is out of memory, instead of
     circulating evicted pages between full nodes forever. *)
  let fault_waiting = Pair_tbl.mem t.pending obj page in
  if free_pages t <= 0 && not (fault_waiting && evict_one t) then false
  else begin
    let o = get_object t obj in
    ignore (install_frame t o page (Contents.snapshot contents) ~dirty ~access);
    wake t obj page;
    true
  end

let wire t ~obj ~page =
  match frame_of t obj page with
  | Some fr -> fr.wired <- true
  | None -> ()

let unwire t ~obj ~page =
  match frame_of t obj page with
  | Some fr -> fr.wired <- false
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Copy machinery                                                     *)
(* ------------------------------------------------------------------ *)

let write_protect_object t oid =
  Pair_tbl.iter
    (fun o index _set -> if o = oid then downgrade_translations t o index)
    t.reverse

let make_asymmetric_copy t ~src =
  let o = get_object t src in
  let c =
    create_object t ~id:(Ids.Alloc.fresh t.ids) ~size_pages:o.size_pages
      ~temporary:true
  in
  c.shadow <- Some (src, 0);
  (match o.copy with
  | Some head_id ->
    let head = get_object t head_id in
    head.shadow <- Some (c.id, 0);
    c.copy <- Some head_id;
    (* the old head now snapshots through the new copy: the new copy
       must push its pre-modification contents down before any write,
       exactly as if the old head had been copied from it *)
    c.version <- c.version + 1
  | None -> ());
  o.copy <- Some c.id;
  o.version <- o.version + 1;
  write_protect_object t src;
  c

(* The older copy [older] read through [c] at offset [o_off]: every
   page [c] holds that [older] lacks is one of [older]'s frozen values
   (pushed into [c] for both, or read from [c]'s own snapshot), so it
   becomes [older]'s own before the link goes.  Snapshots are taken
   before installing, since an install may evict. *)
let inherit_frozen_pages t ~(older : Vm_object.t) ~o_off (c : Vm_object.t) =
  let lacks oi =
    oi >= 0 && oi < older.size_pages
    && (not (Vm_object.is_resident older oi))
    && not (Pair_tbl.mem t.swapped older.id oi)
  in
  List.filter_map
    (fun ci ->
      let oi = ci - o_off in
      match Vm_object.frame c ci with
      | Some fr when lacks oi -> Some (oi, Contents.snapshot fr.contents)
      | Some _ | None -> None)
    (Vm_object.resident_pages c)
  |> List.iter (fun (oi, contents) ->
         if lacks oi then
           ignore
             (install_frame t older oi contents ~dirty:true
                ~access:Prot.Read_write))

let unsplice_copy t ~src ~copy =
  let rec remove_from prev_id =
    let prev = get_object t prev_id in
    match prev.Vm_object.copy with
    | None -> ()
    | Some cid when cid = copy ->
      let c = get_object t copy in
      prev.copy <- c.copy;
      (match c.copy with
      | Some older_id ->
        let older = get_object t older_id in
        (* the older copy now shadows [prev] directly: rebase its
           offset through the removed link *)
        let o_off = match older.shadow with Some (_, o) -> o | None -> 0 in
        let c_off = match c.shadow with Some (_, o) -> o | None -> 0 in
        inherit_frozen_pages t ~older ~o_off c;
        older.shadow <- Some (prev_id, o_off + c_off)
      | None -> ());
      c.copy <- None
    | Some cid -> remove_from cid
  in
  remove_from src;
  (* Tasks here that read through [copy] hold translations into its
     frames or [src]'s.  Both now change outside this node's copy chain
     ([copy] under a sibling's writes, [src] with pushes only to
     distributed copies), so every such translation goes and re-resolves
     through its own chain. *)
  List.iter
    (fun oid ->
      Int_tbl.iter
        (fun index _ -> remove_translations t oid index)
        (get_object t oid).Vm_object.resident)
    [ src; copy ]

let lock_object_readonly t oid =
  let o = get_object t oid in
  Int_tbl.iter
    (fun index (fr : Vm_object.frame) ->
      fr.access <- Prot.min fr.access Prot.Read_only;
      downgrade_translations t oid index)
    o.resident

(* ------------------------------------------------------------------ *)
(* Tasks and mappings                                                 *)
(* ------------------------------------------------------------------ *)

let create_task t =
  let id = Ids.Alloc.fresh t.ids in
  Int_tbl.add t.tasks id { id; amap = Address_map.create (); pmap = Pmap.create () };
  id

let map t ~task ~obj ~start ~npages ~obj_offset ~inherit_ =
  let tr = task_rec t task in
  ignore (get_object t obj);
  Address_map.map tr.amap ~start ~npages ~obj ~obj_offset ~inherit_

let entries t ~task = Address_map.entries (task_rec t task).amap

let mark_needs_copy t ~task ~start =
  let tr = task_rec t task in
  match List.find_opt (fun (e : Address_map.entry) -> e.start = start)
          (Address_map.entries tr.amap)
  with
  | None -> invalid_arg "Vm.mark_needs_copy: no entry at start"
  | Some e ->
    e.needs_copy <- true;
    for vpage = e.start to e.start + e.npages - 1 do
      match Pmap.lookup tr.pmap ~vpage with
      | Some trn -> trn.prot <- Prot.min trn.prot Prot.Read_only
      | None -> ()
    done

let entry_at t ~task ~start =
  let tr = task_rec t task in
  match
    List.find_opt
      (fun (e : Address_map.entry) -> e.start = start)
      (Address_map.entries tr.amap)
  with
  | Some e -> (tr, e)
  | None ->
    invalid_arg (Printf.sprintf "Vm: task#%d has no entry at vpage %d" task start)

let unmap t ~task ~start =
  let tr, e = entry_at t ~task ~start in
  for vpage = e.start to e.start + e.npages - 1 do
    match Pmap.lookup tr.pmap ~vpage with
    | Some trn ->
      (match Pair_tbl.find_opt t.reverse trn.backing_obj trn.index with
      | Some set -> Pair_tbl.remove set task vpage
      | None -> ());
      Pmap.remove tr.pmap ~vpage
    | None -> ()
  done;
  Address_map.unmap tr.amap ~start

let protect t ~task ~start ~max_prot =
  let tr, e = entry_at t ~task ~start in
  e.max_prot <- max_prot;
  for vpage = e.start to e.start + e.npages - 1 do
    match Pmap.lookup tr.pmap ~vpage with
    | Some trn ->
      if Prot.compare trn.prot max_prot > 0 then
        if Prot.equal max_prot Prot.No_access then Pmap.remove tr.pmap ~vpage
        else trn.prot <- max_prot
    | None -> ()
  done

let terminate_object t oid =
  let o = get_object t oid in
  if Vm_object.has_manager o then
    invalid_arg "Vm.terminate_object: object is managed";
  List.iter
    (fun page ->
      remove_translations t oid page;
      Vm_object.remove o ~page;
      t.resident_total <- t.resident_total - 1)
    (Vm_object.resident_pages o);
  Pair_tbl.iter
    (fun obj page () -> if obj = oid then Pair_tbl.remove t.swapped obj page)
    (Pair_tbl.copy t.swapped);
  Int_tbl.remove t.objects oid

let translate_vpage t ~task ~vpage =
  let tr = task_rec t task in
  match Address_map.lookup tr.amap ~vpage with
  | None -> None
  | Some e -> Some (e.obj, vpage - e.start + e.obj_offset)

(* ------------------------------------------------------------------ *)
(* Chain lookup                                                       *)
(* ------------------------------------------------------------------ *)

type lookup =
  | L_found of Vm_object.t * int
  | L_zero of Vm_object.t * int
  | L_swapped of Vm_object.t * int
  | L_manager of Vm_object.t * int

let rec lookup_chain t (o : Vm_object.t) index =
  if Vm_object.is_resident o index then L_found (o, index)
  else if Pair_tbl.mem t.swapped o.id index then L_swapped (o, index)
  else if Vm_object.has_manager o then L_manager (o, index)
  else
    match o.shadow with
    | Some (sid, off) -> lookup_chain t (get_object t sid) (index + off)
    | None ->
      if o.temporary then L_zero (o, index)
      else
        failwith
          (Printf.sprintf
             "Vm.lookup_chain: obj#%d is neither temporary nor managed" o.id)

(* ------------------------------------------------------------------ *)
(* Manager requests                                                   *)
(* ------------------------------------------------------------------ *)

let manager_of t (o : Vm_object.t) =
  match o.manager with
  | Some m -> m
  | None ->
    failwith (Printf.sprintf "Vm: obj#%d has no manager (node %d)" o.id t.node)

let issue_request t (o : Vm_object.t) index desired =
  let m = manager_of t o in
  let resident = Vm_object.is_resident o index in
  Engine.schedule t.engine ~delay:t.config.emmi_call_ms (fun () ->
      if resident then m.m_data_unlock ~page:index ~desired
      else m.m_data_request ~page:index ~desired)

let park t ctx (o : Vm_object.t) index want retry =
  ctx.went_to_manager <- true;
  match Pair_tbl.find_opt t.pending o.id index with
  | Some p ->
    p.waiters <- retry :: p.waiters;
    if Prot.compare want p.desired > 0 then begin
      p.desired <- want;
      issue_request t o index want
    end
  | None ->
    Pair_tbl.add t.pending o.id index { desired = want; waiters = [ retry ] };
    issue_request t o index want

(* ------------------------------------------------------------------ *)
(* Fault handling                                                     *)
(* ------------------------------------------------------------------ *)

let resolve_symmetric t (entry : Address_map.entry) =
  let o = get_object t entry.obj in
  let s =
    create_object t ~id:(Ids.Alloc.fresh t.ids) ~size_pages:entry.npages
      ~temporary:true
  in
  s.shadow <- Some (o.id, entry.obj_offset);
  entry.obj <- s.id;
  entry.obj_offset <- 0;
  entry.needs_copy <- false

let rec fault t ctx task vpage want k =
  let tr = task_rec t task in
  match Address_map.lookup tr.amap ~vpage with
  | None ->
    failwith
      (Printf.sprintf "Vm.fault: task#%d vpage %d unmapped (node %d)" task vpage
         t.node)
  | Some entry ->
    if Prot.compare want entry.max_prot > 0 then
      failwith
        (Printf.sprintf
           "Vm.fault: protection violation: task#%d vpage %d wants %s, max %s"
           task vpage (Prot.to_string want)
           (Prot.to_string entry.max_prot));
    if Prot.equal want Prot.Read_write && entry.needs_copy then
      resolve_symmetric t entry;
    let o = get_object t entry.obj in
    let index = vpage - entry.start + entry.obj_offset in
    (match want with
    | Prot.Read_only -> fault_read t ctx task vpage o index k
    | Prot.Read_write -> fault_write t ctx task vpage o index k
    | Prot.No_access -> assert false)

and retry t ctx task vpage want k () = fault t ctx task vpage want k

and finish t ctx task vpage want ~backing_obj ~index k =
  Engine.schedule t.engine ~delay:t.config.pmap_enter_ms (fun () ->
      match frame_of t backing_obj index with
      | Some fr when Prot.allows fr.access want ->
        let tr = task_rec t task in
        Pmap.enter tr.pmap ~vpage ~backing_obj ~index ~prot:want;
        add_reverse t backing_obj index task vpage;
        if not ctx.went_to_manager then t.local_faults <- t.local_faults + 1;
        k ()
      | Some _ | None ->
        (* invalidated while the translation was being installed *)
        fault t ctx task vpage want k)

and fault_read t ctx task vpage (o : Vm_object.t) index k =
  let want = Prot.Read_only in
  match lookup_chain t o index with
  | L_found (bo, bi) -> finish t ctx task vpage want ~backing_obj:bo.id ~index:bi k
  | L_zero (base, bi) ->
    Engine.schedule t.engine ~delay:t.config.zero_fill_ms (fun () ->
        if not (Vm_object.is_resident base bi) then
          ignore
            (install_frame t base bi
               (Contents.zero ~words:t.config.words_per_page)
               ~dirty:false ~access:Prot.Read_write);
        fault t ctx task vpage want k)
  | L_swapped (base, bi) ->
    ctx.went_to_manager <- true;
    t.backing.fetch ~obj:base.id ~page:bi ~k:(fun contents ->
        (match contents with
        | Some c ->
          ignore (install_frame t base bi c ~dirty:false ~access:Prot.Read_write)
        | None ->
          failwith "Vm.fault_read: swapped page missing from backing store");
        fault t ctx task vpage want k)
  | L_manager (mo, mi) ->
    park t ctx mo mi want (retry t ctx task vpage want k)

and fault_write t ctx task vpage (o : Vm_object.t) index k =
  let want = Prot.Read_write in
  match Vm_object.frame o index with
  | Some fr when Prot.allows fr.access Prot.Read_write ->
    if
      Option.is_some o.copy
      && (not (Vm_object.has_manager o))
      && Vm_object.needs_push o index
    then
      local_push t o index (fun () -> fault t ctx task vpage want k)
    else begin
      fr.dirty <- true;
      finish t ctx task vpage want ~backing_obj:o.id ~index k
    end
  | Some _ ->
    (* resident but insufficient access: managed page, ask for upgrade *)
    park t ctx o index want (retry t ctx task vpage want k)
  | None -> materialize_for_write t ctx task vpage o index k

(* Get the pre-modification contents into [o] as a clean frame, then
   re-run the fault (which will push / dirty / map). *)
and materialize_for_write t ctx task vpage (o : Vm_object.t) index k =
  let want = Prot.Read_write in
  let again () = fault t ctx task vpage want k in
  if Pair_tbl.mem t.swapped o.id index then begin
    ctx.went_to_manager <- true;
    t.backing.fetch ~obj:o.id ~page:index ~k:(fun contents ->
        (match contents with
        | Some c ->
          ignore (install_frame t o index c ~dirty:false ~access:Prot.Read_write)
        | None -> failwith "Vm: swapped page missing from backing store");
        again ())
  end
  else if Vm_object.has_manager o then
    park t ctx o index want (retry t ctx task vpage want k)
  else
    match o.shadow with
    | None ->
      if o.temporary then
        Engine.schedule t.engine ~delay:t.config.zero_fill_ms (fun () ->
            if not (Vm_object.is_resident o index) then
              ignore
                (install_frame t o index
                   (Contents.zero ~words:t.config.words_per_page)
                   ~dirty:false ~access:Prot.Read_write);
            again ())
      else
        failwith
          (Printf.sprintf "Vm: obj#%d not temporary and not managed" o.id)
    | Some (sid, off) -> (
      match lookup_chain t (get_object t sid) (index + off) with
      | L_found (bo, bi) ->
        let src = Vm_object.frame bo bi in
        Engine.schedule t.engine ~delay:t.config.copy_page_ms (fun () ->
            (match (src, Vm_object.is_resident o index) with
            | Some fr, false ->
              ignore
                (install_frame t o index
                   (Contents.snapshot fr.contents)
                   ~dirty:false ~access:Prot.Read_write)
            | _ -> ());
            again ())
      | L_zero (_, _) ->
        Engine.schedule t.engine ~delay:t.config.zero_fill_ms (fun () ->
            if not (Vm_object.is_resident o index) then
              ignore
                (install_frame t o index
                   (Contents.zero ~words:t.config.words_per_page)
                   ~dirty:false ~access:Prot.Read_write);
            again ())
      | L_swapped (base, bi) ->
        ctx.went_to_manager <- true;
        t.backing.fetch ~obj:base.id ~page:bi ~k:(fun contents ->
            (match contents with
            | Some c ->
              ignore
                (install_frame t base bi c ~dirty:false ~access:Prot.Read_write)
            | None -> failwith "Vm: swapped page missing from backing store");
            again ())
      | L_manager (mo, mi) ->
        park t ctx mo mi Prot.Read_only (retry t ctx task vpage want k))

(* Push the frozen contents of (o, index) into the head of o's copy
   chain before the page is modified (paper 2.2, local case). All
   translations of the source frame are removed: tasks that mapped it
   directly through a shadow-chain read hold a snapshot view and must
   re-resolve through the chain, where they will find the pushed copy. *)
and local_push t (o : Vm_object.t) index then_k =
  let head_id =
    match o.copy with Some id -> id | None -> assert false
  in
  let head = get_object t head_id in
  let off = match head.shadow with Some (_, off) -> off | None -> 0 in
  let head_index = index - off in
  Engine.schedule t.engine ~delay:t.config.copy_page_ms (fun () ->
      (match Vm_object.frame o index with
      | Some fr ->
        if
          head_index >= 0
          && head_index < head.size_pages
          && (not (Vm_object.is_resident head head_index))
          && not (Pair_tbl.mem t.swapped head.id head_index)
          (* a page evicted to the backing store still belongs to the
             copy: pushing would clobber its snapshot *)
        then
          ignore
            (install_frame t head head_index
               (Contents.snapshot fr.contents)
               ~dirty:true ~access:Prot.Read_write);
        Vm_object.set_page_version o index o.version;
        remove_translations t o.id index
      | None -> ());
      then_k ())

let touch t ~task ~vpage ~want k =
  if Prot.equal want Prot.No_access then invalid_arg "Vm.touch: want = No_access";
  let tr = task_rec t task in
  match Pmap.lookup tr.pmap ~vpage with
  | Some trn when Prot.allows trn.prot want -> Engine.schedule t.engine ~delay:0. k
  | Some _ | None ->
    t.faults <- t.faults + 1;
    let ctx = { went_to_manager = false } in
    Engine.schedule t.engine ~delay:t.config.fault_entry_ms (fun () ->
        fault t ctx task vpage want k)

let page_contents t ~task ~vpage =
  let tr = task_rec t task in
  match Pmap.lookup tr.pmap ~vpage with
  | None -> None
  | Some trn ->
    Option.map
      (fun (fr : Vm_object.frame) -> Contents.snapshot fr.contents)
      (frame_of t trn.backing_obj trn.index)

let set_frame_dirty t ~obj ~page =
  match frame_of t obj page with
  | Some fr -> fr.dirty <- true
  | None -> ()

let read_word t ~task ~addr k =
  let wpp = t.config.words_per_page in
  let vpage = addr / wpp and word = addr mod wpp in
  let tr = task_rec t task in
  let rec attempt () =
    match Pmap.lookup tr.pmap ~vpage with
    | Some trn when Prot.allows trn.prot Prot.Read_only -> (
      match frame_of t trn.backing_obj trn.index with
      | Some fr -> k (Contents.get fr.contents word)
      | None ->
        Pmap.remove tr.pmap ~vpage;
        touch t ~task ~vpage ~want:Prot.Read_only attempt)
    | Some _ | None -> touch t ~task ~vpage ~want:Prot.Read_only attempt
  in
  attempt ()

let write_word t ~task ~addr ~value k =
  let wpp = t.config.words_per_page in
  let vpage = addr / wpp and word = addr mod wpp in
  let tr = task_rec t task in
  let rec attempt () =
    match Pmap.lookup tr.pmap ~vpage with
    | Some trn when Prot.allows trn.prot Prot.Read_write -> (
      match frame_of t trn.backing_obj trn.index with
      | Some fr ->
        Contents.set fr.contents word value;
        fr.dirty <- true;
        k ()
      | None ->
        Pmap.remove tr.pmap ~vpage;
        touch t ~task ~vpage ~want:Prot.Read_write attempt)
    | Some _ | None -> touch t ~task ~vpage ~want:Prot.Read_write attempt
  in
  attempt ()

(* ------------------------------------------------------------------ *)
(* Kernel EMMI entry points                                           *)
(* ------------------------------------------------------------------ *)

let push_into_copy_chain t (o : Vm_object.t) page contents =
  match o.copy with
  | None -> ()
  | Some head_id ->
    let head = get_object t head_id in
    let off = match head.shadow with Some (_, off) -> off | None -> 0 in
    let head_index = page - off in
    if
      head_index >= 0
      && head_index < head.size_pages
      && (not (Vm_object.is_resident head head_index))
      && not (Pair_tbl.mem t.swapped head.id head_index)
    then begin
      ignore
        (install_frame t head head_index (Contents.snapshot contents) ~dirty:true
           ~access:Prot.Read_write);
      wake t head_id head_index
    end;
    Vm_object.set_page_version o page o.version;
    (* snapshot views of the source frame must re-resolve (see
       [local_push]) *)
    remove_translations t o.id page

let data_supply t ~obj ~page ~contents ~lock ~mode =
  Engine.schedule t.engine ~delay:t.config.emmi_call_ms (fun () ->
      let o = get_object t obj in
      match (mode : Emmi.supply_mode) with
      | Supply_normal ->
        ignore
          (install_frame t o page (Contents.snapshot contents) ~dirty:false
             ~access:lock);
        wake t obj page
      | Supply_push -> push_into_copy_chain t o page contents)

let lock_request t ~obj ~page ~op ~reply =
  Engine.schedule t.engine ~delay:t.config.emmi_call_ms (fun () ->
      let o = get_object t obj in
      let answer result =
        Engine.schedule t.engine ~delay:t.config.emmi_call_ms (fun () ->
            reply result)
      in
      match Vm_object.frame o page with
      | None -> (
        (* write access granted on a page evicted since the grant was
           decided: the faults parked on it fault it in afresh *)
        if Prot.equal op.Emmi.max_access Prot.Read_write then wake t obj page;
        match (op.Emmi.mode, o.copy) with
        | Emmi.Lock_push_first, Some _ ->
          (* a local copy needs the frozen contents, but the page is not
             cached here: the manager must send them (paper 3.7.2) *)
          answer Emmi.Lock_not_present
        | _ -> answer (Emmi.Lock_done { returned = None }))
      | Some fr ->
        (match op.Emmi.mode with
        | Emmi.Lock_push_first -> push_into_copy_chain t o page fr.contents
        | Emmi.Lock_plain -> ());
        let returned =
          if op.Emmi.clean && fr.dirty then begin
            fr.dirty <- false;
            Some (Contents.snapshot fr.contents)
          end
          else None
        in
        (match (op.Emmi.max_access : Prot.t) with
        | No_access ->
          remove_translations t obj page;
          Vm_object.remove o ~page;
          t.resident_total <- t.resident_total - 1
        | Read_only ->
          fr.access <- Prot.min fr.access Prot.Read_only;
          downgrade_translations t obj page
        | Read_write ->
          fr.access <- Prot.Read_write;
          wake t obj page);
        answer (Emmi.Lock_done { returned }))

let pull_request t ~obj ~page ~reply =
  Engine.schedule t.engine ~delay:t.config.emmi_call_ms (fun () ->
      let answer result =
        Engine.schedule t.engine ~delay:t.config.emmi_call_ms (fun () ->
            reply result)
      in
      let rec descend (s : Vm_object.t) index =
        match Vm_object.frame s index with
        | Some fr -> answer (Emmi.Pull_contents (Contents.snapshot fr.contents))
        | None ->
          if Pair_tbl.mem t.swapped s.id index then
            t.backing.fetch ~obj:s.id ~page:index ~k:(function
              | Some c -> answer (Emmi.Pull_contents c)
              | None -> answer Emmi.Pull_zero_fill)
          else if Vm_object.has_manager s then answer (Emmi.Pull_ask_shadow s.id)
          else
            match s.shadow with
            | Some (sid, off) -> descend (get_object t sid) (index + off)
            | None ->
              if s.temporary then answer Emmi.Pull_zero_fill
              else answer (Emmi.Pull_ask_shadow s.id)
      in
      let o = get_object t obj in
      match Vm_object.frame o page with
      | Some fr -> answer (Emmi.Pull_contents (Contents.snapshot fr.contents))
      | None ->
        if Pair_tbl.mem t.swapped o.id page then
          t.backing.fetch ~obj ~page ~k:(function
            | Some c -> answer (Emmi.Pull_contents c)
            | None -> answer Emmi.Pull_zero_fill)
        else
          (match o.shadow with
          | Some (sid, off) -> descend (get_object t sid) (page + off)
          | None ->
            if o.temporary then answer Emmi.Pull_zero_fill
            else answer (Emmi.Pull_ask_shadow o.id)))

(* ------------------------------------------------------------------ *)
(* Crash and rejoin                                                   *)
(* ------------------------------------------------------------------ *)

let crash_reset t =
  (* Volatile state dies with the node: every resident frame, every
     hardware translation, the eviction queue, and the record of pages
     parked in the default pager's swap.  What survives is the address
     space structure (tasks, their address maps, the object table) —
     the restarted-application idealization: the same program resumes
     with cold memory.  Fault continuations parked in [pending] also
     survive, so [redrive_pending] can restart them at rejoin. *)
  Int_tbl.iter
    (fun _id (o : Vm_object.t) ->
      List.iter (fun page -> Vm_object.remove o ~page) (Vm_object.resident_pages o))
    t.objects;
  Pair_tbl.reset t.reverse;
  Pair_tbl.reset t.swapped;
  Queue.clear t.fifo;
  t.resident_total <- 0;
  t.pageout_armed <- false;
  Int_tbl.iter
    (fun _id tr ->
      List.iter (fun vpage -> Pmap.remove tr.pmap ~vpage) (Pmap.vpages tr.pmap))
    t.tasks

let redrive_pending t =
  (* Restart every fault that was waiting on a manager reply when the
     node crashed.  The pending entry is removed *before* its waiters
     run: each waiter re-faults from scratch, and [park] then creates a
     fresh entry (and a fresh manager request) rather than appending to
     the stale one. *)
  let entries =
    Pair_tbl.fold (fun obj page p acc -> (obj, page, p) :: acc) t.pending []
  in
  List.iter
    (fun (obj, page, p) ->
      Pair_tbl.remove t.pending obj page;
      List.iter (fun k -> Engine.schedule t.engine ~delay:0. k) p.waiters)
    entries

let pending_pages t =
  Pair_tbl.fold (fun obj page _ acc -> (obj, page) :: acc) t.pending []
  |> List.sort_uniq compare

let pending_faults t = Pair_tbl.length t.pending

let faults t = t.faults
let local_faults t = t.local_faults
let evictions t = t.evictions
let pageout_runs t = t.pageout_runs
let pageout_evictions t = t.pageout_evictions
