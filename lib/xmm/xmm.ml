module Ipc = Asvm_norma.Ipc
module Network = Asvm_mesh.Network
module Vm = Asvm_machvm.Vm
module Prot = Asvm_machvm.Prot
module Contents = Asvm_machvm.Contents
module Emmi = Asvm_machvm.Emmi
module Ids = Asvm_machvm.Ids
module Store_pager = Asvm_pager.Store_pager
module Metrics = Asvm_obs.Metrics
module Trace = Asvm_obs.Trace
module Msg_meter = Asvm_obs.Msg_meter
module Int_tbl = Asvm_simcore.Int_tbl

(* The Mach pager-interface call a local IPC hop with the user-level
   pager task models. *)
type pager_call =
  | Data_request  (** memory_object_data_request, to the pager *)
  | Data_supply  (** memory_object_data_supply, back with the page *)
  | Data_write  (** memory_object_data_write, a dirty page to the pager *)

(* XMMI: the XMM-internal protocol, an extension of EMMI carried over
   NORMA-IPC. *)
type msg =
  | Request of {
      origin : int;
      obj : Ids.obj_id;
      page : int;
      desired : Prot.t;
      upgrade : bool;
    }
  | Lock of { obj : Ids.obj_id; page : int; max_access : Prot.t; clean : bool }
  | Lock_done of {
      obj : Ids.obj_id;
      page : int;
      clean : bool;  (** echo of the [Lock]'s: a writer recall *)
      contents : Contents.t option;
    }
  | Supply of {
      obj : Ids.obj_id;
      page : int;
      contents : Contents.t;
      lock : Prot.t;
    }
  | Grant of { obj : Ids.obj_id; page : int }
  | Returned of {
      node : int;
      obj : Ids.obj_id;
      page : int;
      contents : Contents.t;
      dirty : bool;
    }
  | Fork_request of { dst_node : int; dst_obj : Ids.obj_id; page : int }
  | Fork_supply of { dst_obj : Ids.obj_id; page : int; contents : Contents.t }
  | Pager_hop of { cont : int; call : pager_call; obj : Ids.obj_id; page : int }
      (** local Mach IPC with the user-level pager task about [page] of
          [obj]; modeled as a loopback NORMA message so the manager
          node's send/receive stations are honestly occupied *)

(* page-state bytes in the manager's dense matrix *)
let st_invalid = '\000'
let st_read = '\001'
let st_write = '\002'

type wait = { mutable remaining : int; finished : unit -> unit }

type mstate = {
  m_obj : Ids.obj_id;
  m_size : int;
  m_node : int;
  m_pager : Store_pager.t;
  m_sharers : int list;
  (* one byte per page per node, indexed by node (empty for a node that
     shares nothing): the memory cost the paper criticizes *)
  m_state : Bytes.t array;
  m_cleaned : Bytes.t;
  m_busy : unit Int_tbl.t;
  m_queue : msg Queue.t Int_tbl.t;
  m_waits : wait Int_tbl.t;
}

type export = { e_src_node : int; e_src_task : Ids.task_id }

type fork_pool = {
  limit : int;
  mutable in_use : int;
  waiting : (unit -> unit) Queue.t;
}

type t = {
  ipc : msg Ipc.t;
  net : Network.t;
  vms : Vm.t array;
  words_per_page : int;
  mutable ports : msg Ipc.port array;
  managers : mstate Int_tbl.t;
  exports : export Int_tbl.t;
  pools : fork_pool array;
  conts : (unit -> unit) Int_tbl.t;
  mutable next_cont : int;
  meter : msg Msg_meter.t;
  trace : Trace.t option;
  (* (obj, page, origin) -> simulated time the fault left the kernel;
     feeds the xmm.fault_ms latency histogram *)
  fault_starts : (Ids.obj_id * int * int, float) Hashtbl.t;
  (* (obj, page, origin) faults whose previous attempt died in a crash;
     completion of the re-driven fault samples xmm.recovery_ms *)
  recovering : (Ids.obj_id * int * int, float) Hashtbl.t;
  (* answers a node owes for delivered-but-unanswered lock requests:
     (owing node, destination, reply).  A crash inside the async-reply
     window synthesizes the owed reply so the manager is not stranded. *)
  mutable owed : (int * int * msg) list;
}

let now t = Asvm_simcore.Engine.now (Vm.engine t.vms.(0))

let node_state ms node =
  let b = ms.m_state.(node) in
  if Bytes.length b = ms.m_size then b
  else begin
    let b = Bytes.make ms.m_size st_invalid in
    ms.m_state.(node) <- b;
    b
  end

let writer_of ms page ~except =
  List.find_opt
    (fun n -> n <> except && Bytes.get (node_state ms n) page = st_write)
    ms.m_sharers

let readers_of ms page ~except =
  List.filter
    (fun n -> n <> except && Bytes.get (node_state ms n) page = st_read)
    ms.m_sharers

let manager_for t obj =
  match Int_tbl.find_opt t.managers obj with
  | Some ms -> ms
  | None -> failwith (Printf.sprintf "Xmm: obj#%d has no manager" obj)

(* Fixed (class, group) rows of the [xmm.msgs] series — the accounting
   buckets match the ASVM side, so the paper's Table 1 counts can be
   compared label for label.  A [Lock] and its [Lock_done] take part in
   an ownership transfer when they recall the current writer's copy
   ([clean = true], XMM's clean-at-pager step) but are an invalidation
   when they merely flush read copies; a pager hop's row is the
   pager-interface call it models. *)
let msg_rows =
  [|
    ("request", "transfer");
    ("lock", "transfer");
    ("lock", "invalidation");
    ("lock_done", "transfer");
    ("lock_done", "invalidation");
    ("supply", "transfer");
    ("grant", "transfer");
    ("returned", "pageout");
    ("fork_request", "copy");
    ("fork_supply", "copy");
    ("pager_request", "pager");
    ("pager_supply", "pager");
    ("pager_write", "transfer");  (* in the transfer's critical path *)
  |]

let row_of_msg = function
  | Request _ -> 0
  | Lock { clean = true; _ } -> 1
  | Lock { clean = false; _ } -> 2
  | Lock_done { clean = true; _ } -> 3
  | Lock_done { clean = false; _ } -> 4
  | Supply _ -> 5
  | Grant _ -> 6
  | Returned _ -> 7
  | Fork_request _ -> 8
  | Fork_supply _ -> 9
  | Pager_hop { call = Data_request; _ } -> 10
  | Pager_hop { call = Data_supply; _ } -> 11
  | Pager_hop { call = Data_write; _ } -> 12

(* Whether page contents ride along: supplies, evictions and dirty
   recalls — a property of the message alone. *)
let carries_page = function
  | Lock_done { contents; _ } -> Option.is_some contents
  | Supply _ | Returned _ | Fork_supply _
  | Pager_hop { call = Data_supply | Data_write; _ } ->
    true
  | Request _ | Lock _ | Grant _ | Fork_request _
  | Pager_hop { call = Data_request; _ } ->
    false

(* The object and page a message concerns, for its trace event. *)
let subject_of_msg = function
  | Request { obj; page; _ }
  | Lock { obj; page; _ }
  | Lock_done { obj; page; _ }
  | Supply { obj; page; _ }
  | Grant { obj; page }
  | Returned { obj; page; _ }
  | Fork_request { dst_obj = obj; page; _ }
  | Fork_supply { dst_obj = obj; page; _ }
  | Pager_hop { obj; page; _ } ->
    (obj, page)

let send t ~src ~dst_node msg =
  let carries_page = carries_page msg in
  Msg_meter.message t.meter ~src ~dst:dst_node ~carries_page msg;
  Ipc.send t.ipc ~src ~dst:t.ports.(dst_node) ~carries_page msg

(* One hop of local IPC between the kernel-resident XMM stack and the
   user-level pager task of manager [ms], about [page]. *)
let pager_hop t ms ~page ~call k =
  let id = t.next_cont in
  t.next_cont <- id + 1;
  Int_tbl.add t.conts id k;
  send t ~src:ms.m_node ~dst_node:ms.m_node
    (Pager_hop { cont = id; call; obj = ms.m_obj; page })

let observe_fault t ~obj ~page ~origin ~write =
  (match Hashtbl.find_opt t.recovering (obj, page, origin) with
  | None -> ()
  | Some t0 ->
    Hashtbl.remove t.recovering (obj, page, origin);
    Msg_meter.recovery t.meter (now t -. t0));
  match Hashtbl.find_opt t.fault_starts (obj, page, origin) with
  | None -> ()
  | Some t0 ->
    Hashtbl.remove t.fault_starts (obj, page, origin);
    Msg_meter.fault t.meter ~ownership:write (now t -. t0)

(* ------------------------------------------------------------------ *)
(* Manager-side request processing                                    *)
(* ------------------------------------------------------------------ *)

let queue_of ms page =
  match Int_tbl.find_opt ms.m_queue page with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Int_tbl.add ms.m_queue page q;
    q

(* Step 1 of the XMM protocol: create a coherent version of the page at
   the pager. If some other node holds the page for writing, its copy is
   downgraded/flushed and — if dirty — written into the paging space.
   The first such write for a page hits the disk in the fault path. *)
let make_coherent t ms ~origin ~page ~desired k =
  match writer_of ms page ~except:origin with
  | None -> k ()
  | Some writer ->
    let max_access =
      if Prot.equal desired Prot.Read_write then Prot.No_access
      else Prot.Read_only
    in
    Int_tbl.replace ms.m_waits page { remaining = 1; finished = k };
    Bytes.set (node_state ms writer) page
      (if Prot.equal max_access Prot.No_access then st_invalid else st_read);
    send t ~src:ms.m_node ~dst_node:writer
      (Lock { obj = ms.m_obj; page; max_access; clean = true })

(* Step 2: for write requests, flush read copies everywhere else. *)
let flush_readers t ms ~origin ~page ~desired k =
  if not (Prot.equal desired Prot.Read_write) then k ()
  else
    match readers_of ms page ~except:origin with
    | [] -> k ()
    | readers ->
      Int_tbl.replace ms.m_waits page
        { remaining = List.length readers; finished = k };
      List.iter
        (fun r ->
          Bytes.set (node_state ms r) page st_invalid;
          send t ~src:ms.m_node ~dst_node:r
            (Lock
               { obj = ms.m_obj; page; max_access = Prot.No_access; clean = false }))
        readers

let rec run_request t ms ~origin ~page ~desired ~upgrade =
  if Network.is_down t.net origin then
    (* the origin crashed while its request was queued: nothing to serve *)
    unbusy t ms page
  else begin
    let obj = ms.m_obj in
    (* captured at service start: a crash (and even a rejoin) of the
       origin while the manager is mid-protocol must not end with a
       supply to a kernel that no longer expects one *)
    let origin_inc = Network.incarnation t.net origin in
    let origin_ok () = Network.current t.net origin origin_inc in
    make_coherent t ms ~origin ~page ~desired (fun () ->
        flush_readers t ms ~origin ~page ~desired (fun () ->
            let record_owner () =
              match t.trace with
              | Some tr when Prot.equal desired Prot.Read_write ->
                Trace.emit tr ~time:(now t) ~node:ms.m_node
                  (Trace.Ownership { obj; page; owner = origin })
              | Some _ | None -> ()
            in
            (* The contents-free upgrade fast path is only sound while the
               origin still holds the data.  The manager's matrix can be
               stale — the origin's eviction [Returned] may be in flight —
               so a co-resident origin is checked directly, and a remote
               origin re-requests on receiving a [Grant] for a page it no
               longer holds (the messages crossed; see the Grant case of
               [handle]). *)
            if
              upgrade
              && Bytes.get (node_state ms origin) page <> st_invalid
              && (origin <> ms.m_node
                 || Vm.is_resident t.vms.(origin) ~obj ~page)
            then begin
              (* origin already holds the data: grant without contents *)
              if origin_ok () then begin
                Bytes.set (node_state ms origin) page
                  (if Prot.equal desired Prot.Read_write then st_write
                   else st_read);
                record_owner ();
                if origin = ms.m_node then begin
                  Vm.lock_request t.vms.(origin) ~obj ~page
                    ~op:
                      {
                        Emmi.max_access = Prot.Read_write;
                        clean = false;
                        mode = Emmi.Lock_plain;
                      }
                    ~reply:(fun _ -> ());
                  observe_fault t ~obj ~page ~origin ~write:true
                end
                else
                  send t ~src:ms.m_node ~dst_node:origin (Grant { obj; page })
              end;
              unbusy t ms page
            end
            else
              (* Step 3: forward the request to the pager, which now views
                 the origin as the page's only user. Local IPC to the
                 user-level pager task: request out, supply (with page)
                 back. *)
              pager_hop t ms ~page ~call:Data_request (fun () ->
                  Store_pager.request ms.m_pager ~obj ~page
                    ~words:t.words_per_page (fun contents ->
                      pager_hop t ms ~page ~call:Data_supply (fun () ->
                          if origin_ok () then begin
                            Bytes.set (node_state ms origin) page
                              (if Prot.equal desired Prot.Read_write then
                                 st_write
                               else st_read);
                            record_owner ();
                            if origin = ms.m_node then begin
                              (* kernel and manager co-resident: plain EMMI *)
                              Vm.data_supply t.vms.(origin) ~obj ~page
                                ~contents ~lock:desired
                                ~mode:Emmi.Supply_normal;
                              observe_fault t ~obj ~page ~origin
                                ~write:(Prot.equal desired Prot.Read_write)
                            end
                            else
                              send t ~src:ms.m_node ~dst_node:origin
                                (Supply { obj; page; contents; lock = desired })
                          end;
                          unbusy t ms page)))))
  end

and unbusy t ms page =
  Int_tbl.remove ms.m_busy page;
  let q = queue_of ms page in
  if not (Queue.is_empty q) then
    match Queue.pop q with
    | Request { origin; page; desired; upgrade; _ } ->
      Int_tbl.add ms.m_busy page ();
      run_request t ms ~origin ~page ~desired ~upgrade
    | _ -> assert false

let manager_request t ms ~origin ~page ~desired ~upgrade =
  if Int_tbl.mem ms.m_busy page then
    Queue.push
      (Request { origin; obj = ms.m_obj; page; desired; upgrade })
      (queue_of ms page)
  else begin
    Int_tbl.add ms.m_busy page ();
    run_request t ms ~origin ~page ~desired ~upgrade
  end

let resume_wait ms page =
  match Int_tbl.find_opt ms.m_waits page with
  | None -> ()
  | Some w ->
    w.remaining <- w.remaining - 1;
    if w.remaining <= 0 then begin
      Int_tbl.remove ms.m_waits page;
      w.finished ()
    end

let manager_lock_done t ms ~page ~contents =
  match contents with
  | Some c ->
    (* a dirty copy came back: make it coherent at the pager (one local
       IPC carrying the page — Mach's memory_object_data_write, part of
       the transfer's critical path); the disk write is paid the first
       time the page is cleaned *)
    pager_hop t ms ~page ~call:Data_write (fun () ->
        if Bytes.get ms.m_cleaned page = '\000' then begin
          Bytes.set ms.m_cleaned page '\001';
          Store_pager.clean ms.m_pager ~obj:ms.m_obj ~page ~contents:c
            (fun () -> resume_wait ms page)
        end
        else begin
          Store_pager.remember ms.m_pager ~obj:ms.m_obj ~page ~contents:c;
          resume_wait ms page
        end)
  | None -> resume_wait ms page

let manager_returned _t ms ~node ~page ~contents ~dirty =
  Bytes.set (node_state ms node) page st_invalid;
  if dirty then begin
    (* no internode paging in XMM: dirty evictions go to the disk *)
    Bytes.set ms.m_cleaned page '\001';
    Store_pager.store_async ms.m_pager ~obj:ms.m_obj ~page ~contents
  end

(* ------------------------------------------------------------------ *)
(* Node-side (proxy) processing                                       *)
(* ------------------------------------------------------------------ *)

let handle_lock t ~node ~obj ~page ~max_access ~clean =
  let vm = t.vms.(node) in
  let ms = manager_for t obj in
  (* The kernel answers asynchronously; until it does, this node owes the
     manager a Lock_done.  If the node crashes inside the window,
     [crash_node] synthesizes the owed (empty) reply so the manager's
     wait resolves — the copy is simply gone. *)
  let owed = (node, ms.m_node, Lock_done { obj; page; clean; contents = None }) in
  t.owed <- owed :: t.owed;
  let inc = Network.incarnation t.net node in
  Vm.lock_request vm ~obj ~page
    ~op:{ Emmi.max_access; clean; mode = Emmi.Lock_plain }
    ~reply:(fun result ->
      if Network.current t.net node inc then begin
        t.owed <- List.filter (fun o -> o != owed) t.owed;
        let contents =
          match result with
          | Emmi.Lock_done { returned } -> returned
          | Emmi.Lock_not_present -> None
        in
        send t ~src:node ~dst_node:ms.m_node (Lock_done { obj; page; clean; contents })
      end)

(* ------------------------------------------------------------------ *)
(* Internal pager for remote fork                                     *)
(* ------------------------------------------------------------------ *)

let pool_acquire pool k =
  if pool.in_use < pool.limit then begin
    pool.in_use <- pool.in_use + 1;
    k ()
  end
  else Queue.push k pool.waiting

let pool_release pool =
  pool.in_use <- pool.in_use - 1;
  if not (Queue.is_empty pool.waiting) then begin
    let k = Queue.pop pool.waiting in
    pool.in_use <- pool.in_use + 1;
    k ()
  end

let handle_fork_request t ~dst_node ~dst_obj ~page =
  let e =
    match Int_tbl.find_opt t.exports dst_obj with
    | Some e -> e
    | None ->
      failwith (Printf.sprintf "Xmm: obj#%d is not an exported copy" dst_obj)
  in
  let vm = t.vms.(e.e_src_node) in
  let pool = t.pools.(e.e_src_node) in
  (* the copy-pager thread is held for the duration of the local fault:
     this is the deadlock hazard of paper section 3.1 *)
  pool_acquire pool (fun () ->
      let rec attempt () =
        if
          Network.is_down t.net e.e_src_node || Network.is_down t.net dst_node
        then
          (* source or requester crashed mid-fork: free the pager thread
             and drop — the requester re-faults at rejoin *)
          pool_release pool
        else
          Vm.touch vm ~task:e.e_src_task ~vpage:page ~want:Prot.Read_only
            (fun () ->
              match Vm.page_contents vm ~task:e.e_src_task ~vpage:page with
              | Some contents ->
                pool_release pool;
                send t ~src:e.e_src_node ~dst_node
                  (Fork_supply { dst_obj; page; contents })
              | None -> attempt ())
      in
      attempt ())

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)
(* ------------------------------------------------------------------ *)

let handle t node msg =
  match msg with
  | Request { origin; obj; page; desired; upgrade } ->
    manager_request t (manager_for t obj) ~origin ~page ~desired ~upgrade
  | Lock { obj; page; max_access; clean } ->
    handle_lock t ~node ~obj ~page ~max_access ~clean
  | Lock_done { obj; page; contents; _ } ->
    manager_lock_done t (manager_for t obj) ~page ~contents
  | Supply { obj; page; contents; lock } ->
    Vm.data_supply t.vms.(node) ~obj ~page ~contents ~lock
      ~mode:Emmi.Supply_normal;
    observe_fault t ~obj ~page ~origin:node
      ~write:(Prot.equal lock Prot.Read_write)
  | Grant { obj; page } ->
    if Vm.is_resident t.vms.(node) ~obj ~page then begin
      Vm.lock_request t.vms.(node) ~obj ~page
        ~op:
          { Emmi.max_access = Prot.Read_write; clean = false; mode = Emmi.Lock_plain }
        ~reply:(fun _ -> ());
      observe_fault t ~obj ~page ~origin:node ~write:true
    end
    else
      (* the grant crossed this kernel's eviction of the page: the read
         copy the manager meant to upgrade is gone, and a contents-free
         grant cannot complete the parked fault.  Convert it into a full
         request; the eviction's [Returned] reached the manager first
         (same-link FIFO), so the manager now serves it from the pager. *)
      send t ~src:node ~dst_node:(manager_for t obj).m_node
        (Request
           { origin = node; obj; page; desired = Prot.Read_write;
             upgrade = false })
  | Returned { node = from; obj; page; contents; dirty } ->
    manager_returned t (manager_for t obj) ~node:from ~page ~contents ~dirty
  | Fork_request { dst_node; dst_obj; page } ->
    handle_fork_request t ~dst_node ~dst_obj ~page
  | Fork_supply { dst_obj; page; contents } ->
    Vm.data_supply t.vms.(node) ~obj:dst_obj ~page ~contents
      ~lock:Prot.Read_only ~mode:Emmi.Supply_normal
  | Pager_hop { cont; _ } -> (
    match Int_tbl.find_opt t.conts cont with
    | Some k ->
      Int_tbl.remove t.conts cont;
      k ()
    | None -> failwith "Xmm: dangling pager continuation")

let create ~net ~ipc_config ~vms ~words_per_page ~fork_threads ?metrics ?trace
    () =
  let ipc = Ipc.create net ipc_config in
  let n = Array.length vms in
  let metrics =
    match metrics with Some m -> m | None -> Metrics.Registry.create ()
  in
  let t =
    {
      ipc;
      net;
      vms;
      words_per_page;
      ports = [||];
      managers = Int_tbl.create 16;
      exports = Int_tbl.create 16;
      pools =
        Array.init n (fun _ ->
            { limit = fork_threads; in_use = 0; waiting = Queue.create () });
      conts = Int_tbl.create 32;
      next_cont = 0;
      meter =
        Msg_meter.create metrics ?trace
          ~clock:(fun () -> Asvm_simcore.Engine.now (Network.engine net))
          ~proto:"xmm" ~header_bytes:ipc_config.Ipc.header_bytes ~rows:msg_rows
          ~row_of:row_of_msg ~subject_of:subject_of_msg ();
      trace;
      fault_starts = Hashtbl.create 16;
      recovering = Hashtbl.create 16;
      owed = [];
    }
  in
  t.ports <-
    Array.init n (fun node ->
        Ipc.port ipc ~node ~handler:(fun _port msg -> handle t node msg));
  Ipc.set_on_dead_letter ipc
    (Some
       (fun ~src ~dst ~src_dead ~dst_dead msg ->
         if not dst_dead then begin
           (* only the source died after transmit: the payload is intact.
              A Request names the dead source as its fault origin, so it
              is moot; everything else (Lock_done, Returned, Fork_supply)
              still carries valid state — apply it verbatim. *)
           match msg with
           | Request _ -> ()
           | m -> handle t dst m
         end
         else
           match msg with
           | Lock { obj; page; clean; _ } ->
             (* the recalled node crashed: its copy is gone, so answer
                the manager with an empty Lock_done to resolve the wait
                (the pager image is the coherent version) *)
             if not (Network.is_down t.net src) then
               handle t src (Lock_done { obj; page; clean; contents = None })
           | _ ->
             (* Supply / Grant / Fork_supply to a crashed kernel: dropped;
                the node re-faults from the pager at rejoin *)
             ignore src_dead));
  t

let ipc_messages t = Ipc.messages t.ipc

let register_shared_object t ~obj ~size_pages ~manager_node ~pager ~sharers =
  let ms =
    {
      m_obj = obj;
      m_size = size_pages;
      m_node = manager_node;
      m_pager = pager;
      m_sharers = sharers;
      m_state = Array.make (Array.length t.vms) Bytes.empty;
      m_cleaned = Bytes.make size_pages '\000';
      m_busy = Int_tbl.create 8;
      m_queue = Int_tbl.create 8;
      m_waits = Int_tbl.create 8;
    }
  in
  Int_tbl.replace t.managers obj ms;
  List.iter
    (fun node ->
      ignore (node_state ms node);
      let local = node = manager_node in
      let engine = Vm.engine t.vms.(node) in
      let request ~page ~desired ~upgrade =
        Hashtbl.replace t.fault_starts (obj, page, node)
          (Asvm_simcore.Engine.now engine);
        if local then
          (* the faulting kernel hosts the manager: no NORMA involved *)
          Asvm_simcore.Engine.schedule engine ~delay:0.05 (fun () ->
              manager_request t ms ~origin:node ~page ~desired ~upgrade)
        else
          send t ~src:node ~dst_node:manager_node
            (Request { origin = node; obj; page; desired; upgrade })
      in
      let manager =
        {
          Emmi.m_data_request =
            (fun ~page ~desired -> request ~page ~desired ~upgrade:false);
          m_data_unlock =
            (fun ~page ~desired -> request ~page ~desired ~upgrade:true);
          m_data_return =
            (fun ~page ~contents ~dirty ->
              if local then
                Asvm_simcore.Engine.schedule engine ~delay:0.05 (fun () ->
                    manager_returned t ms ~node ~page ~contents ~dirty)
              else
                send t ~src:node ~dst_node:manager_node
                  (Returned { node; obj; page; contents; dirty }));
        }
      in
      Vm.set_manager t.vms.(node) obj (Some manager))
    sharers

(* ------------------------------------------------------------------ *)
(* Crash and rejoin                                                   *)
(* ------------------------------------------------------------------ *)

(* Centralized-manager recovery: because every manager keeps a dense
   per-node page-state row and the pager always holds a coherent image
   before any supply, recovering from a non-manager crash is just
   bookkeeping — zero the victim's row, drop its queued requests,
   resolve the replies it owed.  The price of the simplicity is the
   design's single point of failure: a crash of a manager node itself is
   unrecoverable here (the dense matrix and wait queues die with it),
   which is the availability contrast docs/AVAILABILITY.md draws against
   ASVM's re-electable distributed ownership. *)
let crash_node t ~node =
  Int_tbl.iter
    (fun _ ms ->
      (* the victim's cache is gone: it holds nothing, anywhere *)
      let row = ms.m_state.(node) in
      Bytes.fill row 0 (Bytes.length row) st_invalid;
      (* requests the victim originated and never got served are moot *)
      Int_tbl.iter
        (fun _page q ->
          let keep = Queue.create () in
          Queue.iter
            (fun m ->
              match m with
              | Request { origin; _ } when origin = node -> ()
              | m -> Queue.push m keep)
            q;
          Queue.clear q;
          Queue.transfer keep q)
        ms.m_queue)
    t.managers;
  (* resolve the Lock_dones the victim owed: the manager's wait must not
     hang on a kernel that will never answer *)
  let owed_by, rest = List.partition (fun (n, _, _) -> n = node) t.owed in
  t.owed <- rest;
  let eng = Network.engine t.net in
  List.iter
    (fun (_, dst, msg) ->
      Asvm_simcore.Engine.schedule eng ~delay:0. (fun () ->
          if not (Network.is_down t.net dst) then handle t dst msg))
    owed_by;
  (* in-flight fault timing for the victim is meaningless now *)
  let stale =
    Hashtbl.fold
      (fun ((_, _, origin) as key) _ acc ->
        if origin = node then key :: acc else acc)
      t.fault_starts []
  in
  List.iter (Hashtbl.remove t.fault_starts) stale

let rejoin_node t ~node =
  let vm = t.vms.(node) in
  let t0 = now t in
  List.iter
    (fun (obj, page) ->
      if not (Hashtbl.mem t.recovering (obj, page, node)) then
        Hashtbl.replace t.recovering (obj, page, node) t0)
    (Vm.pending_pages vm);
  Vm.redrive_pending vm

let state_bytes t ~obj =
  let ms = manager_for t obj in
  Array.fold_left (fun acc row -> acc + Bytes.length row) 0 ms.m_state

let export_copy t ~src_node ~src_obj ~dst_node ~dst_obj =
  let vm = t.vms.(src_node) in
  let src_task = Vm.create_task vm in
  let size =
    match Vm.find_object vm src_obj with
    | Some o -> o.Asvm_machvm.Vm_object.size_pages
    | None -> failwith "Xmm.export_copy: unknown source object"
  in
  ignore
    (Vm.map vm ~task:src_task ~obj:src_obj ~start:0 ~npages:size ~obj_offset:0
       ~inherit_:Asvm_machvm.Address_map.Inherit_none);
  Int_tbl.replace t.exports dst_obj
    { e_src_node = src_node; e_src_task = src_task };
  let manager =
    {
      Emmi.m_data_request =
        (fun ~page ~desired:_ ->
          send t ~src:dst_node ~dst_node:src_node
            (Fork_request { dst_node; dst_obj; page }));
      m_data_unlock = (fun ~page:_ ~desired:_ -> ());
      m_data_return = (fun ~page:_ ~contents:_ ~dirty:_ -> ());
    }
  in
  Vm.set_manager t.vms.(dst_node) dst_obj (Some manager)

let stalled_fork_requests t =
  Array.fold_left (fun acc p -> acc + Queue.length p.waiting) 0 t.pools
