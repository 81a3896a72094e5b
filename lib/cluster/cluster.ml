module Engine = Asvm_simcore.Engine
module Topology = Asvm_mesh.Topology
module Network = Asvm_mesh.Network
module Vm = Asvm_machvm.Vm
module Vm_object = Asvm_machvm.Vm_object
module Prot = Asvm_machvm.Prot
module Contents = Asvm_machvm.Contents
module Ids = Asvm_machvm.Ids
module Address_map = Asvm_machvm.Address_map
module Disk = Asvm_pager.Disk
module Store_pager = Asvm_pager.Store_pager
module Asvm = Asvm_core.Asvm
module Xmm = Asvm_xmm.Xmm
module Metrics = Asvm_obs.Metrics
module Trace = Asvm_obs.Trace

type backend = B_asvm of Asvm.t | B_xmm of Xmm.t

type task = { tk_node : int; tk_id : Ids.task_id }

(* Engine-profile gauges, resolved once at [create] so snapshotting
   never goes through the registry's string lookup. *)
type engine_gauges = {
  g_events : Metrics.Gauge.t;
  g_sim_ms : Metrics.Gauge.t;
  g_cpu_s : Metrics.Gauge.t;
  g_cpu_us_per_sim_ms : Metrics.Gauge.t;
}

(* Paging-pressure gauges, summed over every node VM (and every pager
   for [pager.stores]) at snapshot time — the serve workload's eviction
   and pageout-daemon accounting. *)
type vm_gauges = {
  g_evictions : Metrics.Gauge.t;
  g_pageout_runs : Metrics.Gauge.t;
  g_pageout_evictions : Metrics.Gauge.t;
  g_pager_stores : Metrics.Gauge.t;
}

(* Page-store accounting. Contents counts snapshots / COW
   materializations / checksum-cache hits per domain; each snapshot
   folds the delta since the previous one into this cluster's
   counters. A cell runs one cluster per domain, so the attribution is
   exact under the parallel runner. *)
type contents_counters = {
  c_snapshots : Metrics.Counter.t;
  c_cow : Metrics.Counter.t;
  c_sum_hits : Metrics.Counter.t;
  mutable c_base : Contents.stats;
}

type t = {
  config : Config.t;
  engine : Engine.t;
  net : Network.t;
  ids : Ids.Alloc.t;
  vms : Vm.t array;
  backend : backend;
  default_pager : Store_pager.t;
  io_disk : Disk.t;
  metrics : Metrics.Registry.t;
  engine_gauges : engine_gauges;
  vm_gauges : vm_gauges;
  contents_counters : contents_counters;
  trace : Trace.t option;
  (* distributed objects and their sharer sets *)
  registered : (Ids.obj_id, int list) Hashtbl.t;
  pagers : (Ids.obj_id, Store_pager.t list) Hashtbl.t;
  (* nodes that must not crash: pager/IO nodes always; under XMM also
     manager nodes and fork sources (the centralized single points of
     failure docs/AVAILABILITY.md documents) *)
  pinned : (int, string) Hashtbl.t;
}

let create (config : Config.t) =
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:config.nodes in
  let metrics = Metrics.Registry.create () in
  let net = Network.create ~metrics engine config.net topo in
  Network.set_interposer net config.net_interposer;
  let ids = Ids.Alloc.create () in
  let io_disk = Disk.create engine config.disk in
  let default_pager =
    Store_pager.create engine ~node:config.io_node ~disk:io_disk config.pager
  in
  let backing = Store_pager.as_backing default_pager in
  let vms =
    Array.init config.nodes (fun node ->
        Vm.create ~engine ~node ~config:config.vm ~backing ~ids)
  in
  let trace =
    match (config.trace_capacity, config.trace_out) with
    | None, None -> None
    | capacity, out ->
      let tr = Trace.create ?capacity () in
      Option.iter
        (fun path -> Trace.set_jsonl tr (Some (open_out path)))
        out;
      Some tr
  in
  let backend =
    match config.mm with
    | Config.Mm_asvm ->
      B_asvm
        (Asvm.create ~net ~config:config.asvm ~vms
           ~words_per_page:config.vm.words_per_page ~metrics ?trace ())
    | Config.Mm_xmm ->
      B_xmm
        (Xmm.create ~net ~ipc_config:config.norma ~vms
           ~words_per_page:config.vm.words_per_page
           ~fork_threads:config.fork_threads ~metrics ?trace ())
  in
  {
    config;
    engine;
    net;
    ids;
    vms;
    backend;
    default_pager;
    io_disk;
    registered = Hashtbl.create 32;
    pagers = Hashtbl.create 32;
    pinned =
      (let p = Hashtbl.create 4 in
       Hashtbl.replace p config.io_node "hosts the default pager";
       p);
    metrics;
    engine_gauges =
      {
        g_events = Metrics.Registry.gauge metrics "engine.events";
        g_sim_ms = Metrics.Registry.gauge metrics "engine.sim_ms";
        g_cpu_s = Metrics.Registry.gauge metrics "engine.cpu_s";
        g_cpu_us_per_sim_ms =
          Metrics.Registry.gauge metrics "engine.cpu_us_per_sim_ms";
      };
    vm_gauges =
      {
        g_evictions = Metrics.Registry.gauge metrics "vm.evictions";
        g_pageout_runs = Metrics.Registry.gauge metrics "vm.pageout_runs";
        g_pageout_evictions =
          Metrics.Registry.gauge metrics "vm.pageout_evictions";
        g_pager_stores = Metrics.Registry.gauge metrics "pager.stores";
      };
    contents_counters =
      {
        c_snapshots = Metrics.Registry.counter metrics "contents.snapshots";
        c_cow =
          Metrics.Registry.counter metrics "contents.cow_materializations";
        c_sum_hits =
          Metrics.Registry.counter metrics "contents.checksum_cache_hits";
        c_base = Contents.stats ();
      };
    trace;
  }

let config t = t.config
let engine t = t.engine
let now t = Engine.now t.engine
let run ?until t = Engine.run ?until t.engine
let node_vm t node = t.vms.(node)

let backend t =
  match t.backend with B_asvm a -> `Asvm a | B_xmm x -> `Xmm x

let default_pager t = t.default_pager
let trace t = t.trace
let metrics t = t.metrics

let metrics_snapshot t =
  let p = Engine.profile t.engine in
  let g = t.engine_gauges in
  Metrics.Gauge.set g.g_events (float_of_int p.Engine.events);
  Metrics.Gauge.set g.g_sim_ms p.Engine.sim_ms;
  Metrics.Gauge.set g.g_cpu_s p.Engine.cpu_s;
  Metrics.Gauge.set g.g_cpu_us_per_sim_ms p.Engine.cpu_us_per_sim_ms;
  let cc = t.contents_counters in
  let cur = Contents.stats () in
  let base = cc.c_base in
  Metrics.Counter.incr ~by:(cur.Contents.snapshots - base.Contents.snapshots)
    cc.c_snapshots;
  Metrics.Counter.incr
    ~by:(cur.Contents.cow_materializations - base.Contents.cow_materializations)
    cc.c_cow;
  Metrics.Counter.incr
    ~by:(cur.Contents.checksum_cache_hits - base.Contents.checksum_cache_hits)
    cc.c_sum_hits;
  cc.c_base <- cur;
  let vg = t.vm_gauges in
  let sum_vms f = Array.fold_left (fun acc vm -> acc + f vm) 0 t.vms in
  Metrics.Gauge.set vg.g_evictions (float_of_int (sum_vms Vm.evictions));
  Metrics.Gauge.set vg.g_pageout_runs (float_of_int (sum_vms Vm.pageout_runs));
  Metrics.Gauge.set vg.g_pageout_evictions
    (float_of_int (sum_vms Vm.pageout_evictions));
  let distinct_pagers =
    Hashtbl.fold (fun _ ps acc -> ps @ acc) t.pagers [ t.default_pager ]
    |> List.fold_left
         (fun acc p -> if List.memq p acc then acc else p :: acc)
         []
  in
  Metrics.Gauge.set vg.g_pager_stores
    (float_of_int
       (List.fold_left
          (fun acc p -> acc + Store_pager.stores p)
          0 distinct_pagers));
  Metrics.Registry.snapshot t.metrics

(* ------------------------------------------------------------------ *)
(* Object creation                                                    *)
(* ------------------------------------------------------------------ *)

let make_reps t ~obj ~size_pages ~temporary nodes =
  List.iter
    (fun node ->
      match Vm.find_object t.vms.(node) obj with
      | Some _ -> ()
      | None -> ignore (Vm.create_object t.vms.(node) ~id:obj ~size_pages ~temporary))
    nodes

let register_backend t ~obj ~size_pages ~sharers ~manager_node ~pagers
    ~forwarding ~shadow =
  match t.backend with
  | B_asvm a ->
    Asvm.register_object a ~obj ~size_pages ~sharers ~pagers ?forwarding
      ?shadow ()
  | B_xmm x -> (
    match pagers with
    | [ pager ] ->
      Hashtbl.replace t.pinned manager_node "hosts an XMM manager";
      Xmm.register_shared_object x ~obj ~size_pages ~manager_node ~pager
        ~sharers
    | _ ->
      (* NMK13 XMM predates the paper's multiple-pager proposal *)
      failwith "Cluster: XMM supports a single pager per object")

let create_shared_object t ~size_pages ~sharers ?manager_node ?forwarding () =
  let obj = Ids.Alloc.fresh t.ids in
  let manager_node = Option.value manager_node ~default:t.config.io_node in
  make_reps t ~obj ~size_pages ~temporary:true sharers;
  register_backend t ~obj ~size_pages ~sharers ~manager_node
    ~pagers:[ t.default_pager ] ~forwarding ~shadow:None;
  Hashtbl.replace t.registered obj sharers;
  Hashtbl.replace t.pagers obj [ t.default_pager ];
  obj

let create_file_object t ~size_pages ~sharers ?manager_node ?data ?(stripes = 1)
    () =
  if stripes < 1 then invalid_arg "Cluster.create_file_object: stripes < 1";
  let obj = Ids.Alloc.fresh t.ids in
  let manager_node = Option.value manager_node ~default:t.config.io_node in
  (* [stripes] pager tasks on distinct I/O nodes, each with its own
     disk, serving pages round-robin (the PFS-style striping of paper
     section 6) *)
  let pagers =
    List.init stripes (fun s ->
        let node = (t.config.io_node + s) mod t.config.nodes in
        Hashtbl.replace t.pinned node "hosts a file pager";
        let disk =
          if s = 0 then t.io_disk else Disk.create t.engine t.config.disk
        in
        Store_pager.create t.engine ~node ~disk t.config.pager)
  in
  let pager_for page = List.nth pagers (page mod stripes) in
  (* A file's pages all exist at its pager, which is the supply ceiling
     of Table 2. Files with [data] live on the disk (the first supply of
     each page pays the media read); a new file without [data] is
     supplied as initially zero-filled pages straight from the pager. *)
  let wpp = t.config.vm.words_per_page in
  for page = 0 to size_pages - 1 do
    let c = Contents.zero ~words:wpp in
    match data with
    | Some f ->
      for w = 0 to wpp - 1 do
        Contents.set c w (f ((page * wpp) + w))
      done;
      Store_pager.preload (pager_for page) ~obj ~page c
    | None -> Store_pager.remember (pager_for page) ~obj ~page ~contents:c
  done;
  make_reps t ~obj ~size_pages ~temporary:false sharers;
  register_backend t ~obj ~size_pages ~sharers ~manager_node ~pagers
    ~forwarding:None ~shadow:None;
  Hashtbl.replace t.registered obj sharers;
  Hashtbl.replace t.pagers obj pagers;
  obj

let create_private_object t ~node ~size_pages =
  let obj = Ids.Alloc.fresh t.ids in
  ignore (Vm.create_object t.vms.(node) ~id:obj ~size_pages ~temporary:true);
  obj

(* ------------------------------------------------------------------ *)
(* Tasks and access                                                   *)
(* ------------------------------------------------------------------ *)

let create_task t ~node = { tk_node = node; tk_id = Vm.create_task t.vms.(node) }

let map t ~task ~obj ~start ~npages ~inherit_ =
  ignore
    (Vm.map t.vms.(task.tk_node) ~task:task.tk_id ~obj ~start ~npages
       ~obj_offset:0 ~inherit_)

let touch t ~task ~vpage ~want k =
  Vm.touch t.vms.(task.tk_node) ~task:task.tk_id ~vpage ~want k

let read_word t ~task ~addr k =
  Vm.read_word t.vms.(task.tk_node) ~task:task.tk_id ~addr k

let write_word t ~task ~addr ~value k =
  Vm.write_word t.vms.(task.tk_node) ~task:task.tk_id ~addr ~value k

(* ------------------------------------------------------------------ *)
(* Fork                                                               *)
(* ------------------------------------------------------------------ *)

let all_nodes t = List.init t.config.nodes Fun.id

(* Promote a node-local object (and, recursively, its local shadow
   parents) to a distributed ASVM object so a remote child can pull
   through it: the "shared mapping of the source object" of paper 3.7. *)
let rec ensure_distributed t a ~home ~obj k =
  if Hashtbl.mem t.registered obj then k ()
  else begin
    let o = Vm.get_object t.vms.(home) obj in
    let nodes = all_nodes t in
    let finish ~parent =
      make_reps t ~obj ~size_pages:o.Vm_object.size_pages
        ~temporary:o.Vm_object.temporary nodes;
      let shadow = Option.map (fun pid -> (pid, home)) parent in
      Asvm.register_object a ~obj ~size_pages:o.Vm_object.size_pages
        ~sharers:nodes ~pagers:[ t.default_pager ] ?shadow ();
      Hashtbl.replace t.registered obj nodes;
      Asvm.claim_residents a ~node:home ~obj;
      match parent with
      | None -> k ()
      | Some pid ->
        (* the copy leaves the parent's kernel chain and becomes a
           shared copy coordinated through push scans *)
        Vm.unsplice_copy t.vms.(home) ~src:pid ~copy:obj;
        Asvm.copy_promoted a ~src:pid ~copy:obj ~peer:home k
    in
    match o.Vm_object.shadow with
    | None -> finish ~parent:None
    | Some (pid, _off) ->
      ensure_distributed t a ~home ~obj:pid (fun () ->
          (* promoting the parent may have rewritten the local chain
             (sibling copies are respliced when an intermediate copy is
             unspliced): re-read our actual parent before leaving it *)
          let parent =
            match o.Vm_object.shadow with
            | Some (pid', _) -> Some pid'
            | None -> None
          in
          finish ~parent)
  end

let check_sharer t ~obj ~node =
  match Hashtbl.find_opt t.registered obj with
  | Some sharers when List.mem node sharers -> ()
  | Some _ ->
    failwith
      (Printf.sprintf "Cluster.fork: node %d is not a sharer of obj#%d" node obj)
  | None -> failwith "Cluster.fork: object not distributed"

let fork_asvm t a ~task ~dst_node k =
  let child = create_task t ~node:dst_node in
  let entries = Vm.entries t.vms.(task.tk_node) ~task:task.tk_id in
  let rec per_entry = function
    | [] -> Engine.schedule t.engine ~delay:0.2 (fun () -> k child)
    | (e : Address_map.entry) :: rest -> (
      match e.inherit_ with
      | Address_map.Inherit_none -> per_entry rest
      | Address_map.Inherit_share ->
        check_sharer t ~obj:e.obj ~node:dst_node;
        ignore
          (Vm.map t.vms.(dst_node) ~task:child.tk_id ~obj:e.obj ~start:e.start
             ~npages:e.npages ~obj_offset:e.obj_offset
             ~inherit_:Address_map.Inherit_share);
        per_entry rest
      | Address_map.Inherit_copy ->
        ensure_distributed t a ~home:task.tk_node ~obj:e.obj (fun () ->
            check_sharer t ~obj:e.obj ~node:dst_node;
            (* figure 8: shared mapping established, then a local copy
               through the standard VM mechanisms *)
            let c = Vm.make_asymmetric_copy t.vms.(dst_node) ~src:e.obj in
            Asvm.object_copied a ~src:e.obj ~peer:dst_node ~shared:None
              (fun () ->
                ignore
                  (Vm.map t.vms.(dst_node) ~task:child.tk_id
                     ~obj:c.Vm_object.id ~start:e.start ~npages:e.npages
                     ~obj_offset:e.obj_offset ~inherit_:Address_map.Inherit_copy);
                per_entry rest)))
  in
  per_entry entries

let fork_xmm t x ~task ~dst_node k =
  let src_node = task.tk_node in
  Hashtbl.replace t.pinned src_node "hosts an XMM internal pager (fork source)";
  let child = create_task t ~node:dst_node in
  let entries = Vm.entries t.vms.(src_node) ~task:task.tk_id in
  List.iter
    (fun (e : Address_map.entry) ->
      match e.inherit_ with
      | Address_map.Inherit_none -> ()
      | Address_map.Inherit_share ->
        check_sharer t ~obj:e.obj ~node:dst_node;
        ignore
          (Vm.map t.vms.(dst_node) ~task:child.tk_id ~obj:e.obj ~start:e.start
             ~npages:e.npages ~obj_offset:e.obj_offset
             ~inherit_:Address_map.Inherit_share)
      | Address_map.Inherit_copy ->
        if Hashtbl.mem t.registered e.obj then
          (* NMK13 XMM cannot combine shared and inherited memory
             (paper section 2.3) *)
          failwith
            "Cluster.fork (XMM): copy-inheritance of shared memory is not \
             supported by NMK13 XMM";
        let src_obj = Vm.get_object t.vms.(src_node) e.obj in
        let size = src_obj.Vm_object.size_pages in
        (* local copy of the source address space, as in a local fork *)
        let c_local = Vm.make_asymmetric_copy t.vms.(src_node) ~src:e.obj in
        (* the internal pager exports a fresh object to the remote node,
           fronted by a local anonymous shadow for the child's writes *)
        let d = Vm.create_object t.vms.(dst_node) ~id:(Ids.Alloc.fresh t.ids) ~size_pages:size ~temporary:false in
        let l = Vm.create_object t.vms.(dst_node) ~id:(Ids.Alloc.fresh t.ids) ~size_pages:size ~temporary:true in
        l.Vm_object.shadow <- Some (d.Vm_object.id, 0);
        Xmm.export_copy x ~src_node ~src_obj:c_local.Vm_object.id ~dst_node
          ~dst_obj:d.Vm_object.id;
        ignore
          (Vm.map t.vms.(dst_node) ~task:child.tk_id ~obj:l.Vm_object.id
             ~start:e.start ~npages:e.npages ~obj_offset:e.obj_offset
             ~inherit_:Address_map.Inherit_copy))
    entries;
  (* remote task creation costs a NORMA round trip *)
  Engine.schedule t.engine ~delay:2.0 (fun () -> k child)

let fork t ~task ~dst_node k =
  match t.backend with
  | B_asvm a -> fork_asvm t a ~task ~dst_node k
  | B_xmm x -> fork_xmm t x ~task ~dst_node k

(* ------------------------------------------------------------------ *)
(* Barrier                                                            *)
(* ------------------------------------------------------------------ *)

module Barrier = struct
  type cluster = t

  type t = {
    cl : cluster;
    parties : int;
    mutable waiting : (unit -> unit) list;
  }

  let create cl ~parties =
    if parties <= 0 then invalid_arg "Barrier.create: parties <= 0";
    { cl; parties; waiting = [] }

  let arrive b k =
    b.waiting <- k :: b.waiting;
    if List.length b.waiting >= b.parties then begin
      let ws = b.waiting in
      b.waiting <- [];
      List.iter
        (fun k -> Engine.schedule b.cl.engine ~delay:b.cl.config.barrier_ms k)
        ws
    end
end

(* ------------------------------------------------------------------ *)
(* Crash and rejoin                                                   *)
(* ------------------------------------------------------------------ *)

let node_down t ~node = Network.is_down t.net node

let crashable t ~node =
  node >= 0 && node < t.config.nodes
  && (not (Hashtbl.mem t.pinned node))
  && not (Network.is_down t.net node)

let crash_node t ~node =
  if node < 0 || node >= t.config.nodes then
    invalid_arg (Printf.sprintf "Cluster.crash_node: no node %d" node);
  (match Hashtbl.find_opt t.pinned node with
  | Some role ->
    invalid_arg (Printf.sprintf "Cluster.crash_node: node %d %s" node role)
  | None -> ());
  if Network.is_down t.net node then
    invalid_arg (Printf.sprintf "Cluster.crash_node: node %d is already down" node);
  (* order matters: mark the node down first so the recovery traffic the
     backend generates cannot be routed through (or delivered to) the
     victim, then drop its kernel state, then recover the shared
     protocol state *)
  Network.set_down t.net node;
  Vm.crash_reset t.vms.(node);
  (match t.backend with
  | B_asvm a -> Asvm.crash_node a ~node
  | B_xmm x -> Xmm.crash_node x ~node);
  Metrics.Counter.incr (Metrics.Registry.counter t.metrics "chaos.crashes");
  Trace.note t.trace ~time:(now t) ~node ~category:"crash" "node %d crashed"
    node

let rejoin_node t ~node =
  if node < 0 || node >= t.config.nodes then
    invalid_arg (Printf.sprintf "Cluster.rejoin_node: no node %d" node);
  if not (Network.is_down t.net node) then
    invalid_arg (Printf.sprintf "Cluster.rejoin_node: node %d is not down" node);
  Network.set_up t.net node;
  (match t.backend with
  | B_asvm a -> Asvm.rejoin_node a ~node
  | B_xmm x -> Xmm.rejoin_node x ~node);
  Metrics.Counter.incr (Metrics.Registry.counter t.metrics "chaos.rejoins");
  Trace.note t.trace ~time:(now t) ~node ~category:"crash" "node %d rejoined"
    node

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let object_pagers t obj =
  match Hashtbl.find_opt t.pagers obj with Some l -> l | None -> []

let registered_objects t =
  Hashtbl.fold (fun obj sharers acc -> (obj, sharers) :: acc) t.registered []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Range locking (ASVM only; paper section 6)                         *)
(* ------------------------------------------------------------------ *)

let lock_range t ~task ~start ~npages k =
  let a =
    match t.backend with
    | B_asvm a -> a
    | B_xmm _ -> failwith "Cluster.lock_range: XMM has no locking primitive"
  in
  let vm = t.vms.(task.tk_node) in
  let rec acquire vpage k =
    if vpage >= start + npages then k ()
    else
      (* gain write ownership, then pin it; retry if ownership raced
         away between the fault and the hold *)
      Vm.touch vm ~task:task.tk_id ~vpage ~want:Prot.Read_write (fun () ->
          match Vm.translate_vpage vm ~task:task.tk_id ~vpage with
          | Some (obj, page) ->
            if Asvm.hold_page a ~node:task.tk_node ~obj ~page then
              acquire (vpage + 1) k
            else acquire vpage k
          | None -> failwith "Cluster.lock_range: unmapped page")
  in
  acquire start k

let unlock_range t ~task ~start ~npages =
  let a =
    match t.backend with
    | B_asvm a -> a
    | B_xmm _ -> failwith "Cluster.unlock_range: XMM has no locking primitive"
  in
  let vm = t.vms.(task.tk_node) in
  for vpage = start to start + npages - 1 do
    match Vm.translate_vpage vm ~task:task.tk_id ~vpage with
    | Some (obj, page) -> Asvm.release_page a ~node:task.tk_node ~obj ~page
    | None -> ()
  done

let protocol_messages t =
  match t.backend with
  | B_asvm a -> Asvm.sts_messages a
  | B_xmm x -> Xmm.ipc_messages x

let network_bytes t = Network.bytes_sent t.net
