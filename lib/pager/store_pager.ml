module Engine = Asvm_simcore.Engine
module Station = Asvm_simcore.Station
module Contents = Asvm_machvm.Contents
module Pair_tbl = Asvm_simcore.Pair_tbl

type config = { supply_ms : float; store_ms : float; file_read_ms : float }

(* supply_ms covers the user-level pager's whole turnaround for one page
   request, including its local Mach IPC with the kernel; it is the
   per-page ceiling of the paper's Table 2 write test. file_read_ms is
   the extra cost of bringing a cold file page off the disk (sequential
   media rate, not a full seek — file readers stream). *)
let default_config = { supply_ms = 0.85; store_ms = 0.5; file_read_ms = 2.6 }

type entry = { mutable data : Contents.t; mutable on_disk_only : bool }

type t = {
  engine : Engine.t;
  node : int;
  disk : Disk.t;
  config : config;
  station : Station.t;
  table : entry Pair_tbl.t;  (* (obj, page) -> entry *)
  mutable supplies : int;
  mutable cleans : int;
  mutable stores : int;
}

let create engine ~node ~disk config =
  {
    engine;
    node;
    disk;
    config;
    station = Station.create engine;
    table = Pair_tbl.create 256;
    supplies = 0;
    cleans = 0;
    stores = 0;
  }

let node t = t.node
let disk t = t.disk

let preload t ~obj ~page contents =
  Pair_tbl.replace t.table (obj, page)
    { data = Contents.snapshot contents; on_disk_only = true }

let has t ~obj ~page = Pair_tbl.mem t.table (obj, page)

let request t ~obj ~page ~words k =
  t.supplies <- t.supplies + 1;
  match Pair_tbl.find_opt t.table (obj, page) with
  | Some e when e.on_disk_only ->
    (* cold file page: pay the media read once, then serve from memory *)
    Station.submit t.station
      ~service:(t.config.supply_ms +. t.config.file_read_ms)
      (fun () ->
        e.on_disk_only <- false;
        k (Contents.snapshot e.data))
  | Some e ->
    Station.submit t.station ~service:t.config.supply_ms (fun () ->
        k (Contents.snapshot e.data))
  | None ->
    Station.submit t.station ~service:t.config.supply_ms (fun () ->
        k (Contents.zero ~words))

let remember t ~obj ~page ~contents =
  match Pair_tbl.find_opt t.table (obj, page) with
  | Some e ->
    e.data <- Contents.snapshot contents;
    e.on_disk_only <- false
  | None ->
    Pair_tbl.replace t.table (obj, page)
      { data = Contents.snapshot contents; on_disk_only = false }

let clean t ~obj ~page ~contents k =
  t.cleans <- t.cleans + 1;
  remember t ~obj ~page ~contents;
  Station.submit t.station ~service:t.config.store_ms (fun () ->
      Disk.write t.disk k)

let store_async t ~obj ~page ~contents =
  t.cleans <- t.cleans + 1;
  t.stores <- t.stores + 1;
  remember t ~obj ~page ~contents;
  Station.submit t.station ~service:t.config.store_ms (fun () ->
      Disk.write t.disk ignore)

let as_backing t =
  {
    Asvm_machvm.Backing.store =
      (fun ~obj ~page ~contents ~k ->
        t.stores <- t.stores + 1;
        remember t ~obj ~page ~contents;
        Station.submit t.station ~service:t.config.store_ms (fun () ->
            Disk.write t.disk k));
    fetch =
      (fun ~obj ~page ~k ->
        Station.submit t.station ~service:t.config.supply_ms (fun () ->
            Disk.read t.disk (fun () ->
                k
                  (Option.map
                     (fun e -> Contents.snapshot e.data)
                     (Pair_tbl.find_opt t.table (obj, page))))));
  }

let supplies t = t.supplies
let cleans t = t.cleans
let stores t = t.stores
