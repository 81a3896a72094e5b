(* What the benchmark can see of the simulator from outside: a host
   clock, in-memory spans around its own calls into each layer, and
   readings of every layer's public counters.  A reading is taken at the
   same hook points that bound the spans ([on_start] and [inspect]), so
   the difference of two readings covers the measured phase only. *)

module Cluster = Asvm_cluster.Cluster
module Config = Asvm_cluster.Config
module Metrics = Asvm_obs.Metrics
module Engine = Asvm_simcore.Engine
module Stats = Asvm_simcore.Stats
module Vm = Asvm_machvm.Vm
module Contents = Asvm_machvm.Contents
module Store_pager = Asvm_pager.Store_pager
module Disk = Asvm_pager.Disk
module Asvm = Asvm_core.Asvm
module Xmm = Asvm_xmm.Xmm

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  t0 : float;
  mutable t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 0

(* Spans are only kept in a traced run; [open_span] still hands out ids
   so callers need not branch. *)
let tracing = ref false

let open_span ?(parent = -1) name t0 =
  let id = !next_id in
  incr next_id;
  if !tracing then spans := { id; parent; name; t0; t1 = t0 } :: !spans;
  id

let close_span id t1 =
  List.iter (fun s -> if s.id = id then s.t1 <- t1) !spans

let span ?parent name t0 t1 = close_span (open_span ?parent name t0) t1
let recorded () = List.rev !spans

let reset ~tracing:on =
  spans := [];
  next_id := 0;
  tracing := on

(* Duration minus the part of it covered by the span's children. *)
let self_time s all =
  let children =
    List.filter (fun c -> c.parent = s.id) all
    |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0., neg_infinity) children
  in
  s.t1 -. s.t0 -. covered

(* ------------------------------------------------------------------ *)
(* Layer readings                                                     *)
(* ------------------------------------------------------------------ *)

type reading = {
  counts : (string, float) Hashtbl.t;
  hists : (string * float array) list;  (** sorted samples per family *)
}

let get r name = Option.value ~default:0. (Hashtbl.find_opt r.counts name)
let delta ~before ~after name = get after name -. get before name

let sum_nodes cl f =
  let acc = ref 0 in
  for node = 0 to (Cluster.config cl).Config.nodes - 1 do
    acc := !acc + f (Cluster.node_vm cl node)
  done;
  float_of_int !acc

let distinct xs =
  List.fold_left (fun acc x -> if List.memq x acc then acc else x :: acc) [] xs

(* Registry histogram families whose measured-phase samples are kept. *)
let hist_families = [ "asvm.fault_ms"; "xmm.fault_ms"; "net.tx_backlog_ms" ]

(* [full = false] reads only what the end-to-end metrics need, all of it
   O(nodes); [full = true] also snapshots the registry, copies the
   latency samples and walks the pagers, which a traced run pays for
   inside its [obs.snapshot] spans. *)
let read ~full cl =
  let counts = Hashtbl.create 64 in
  let set name v = Hashtbl.replace counts name v in
  let add name v = set name (v +. Option.value ~default:0. (Hashtbl.find_opt counts name)) in
  let engine = Cluster.engine cl in
  set "engine.events" (float_of_int (Engine.events_executed engine));
  set "engine.pending" (float_of_int (Engine.pending engine));
  set "proto.msgs" (float_of_int (Cluster.protocol_messages cl));
  let faults = sum_nodes cl Vm.faults in
  set "vm.faults" faults;
  (* per backend, for the transports' per-fault ratios on paper-cells *)
  (match Cluster.backend cl with
  | `Asvm _ -> set "faults.asvm" faults
  | `Xmm _ -> set "faults.xmm" faults);
  if not full then { counts; hists = [] }
  else begin
    set "vm.evictions" (sum_nodes cl Vm.evictions);
    set "vm.pageout_evictions" (sum_nodes cl Vm.pageout_evictions);
    let snap = Cluster.metrics_snapshot cl in
    List.iter
      (fun (s : Metrics.sample) ->
        match s.value with
        | Metrics.Counter_v n -> (
          let n = float_of_int n in
          let label k = List.assoc_opt k s.labels in
          match s.name with
          | "net.messages" | "net.bytes" | "asvm.ownership_transfers"
          | "contents.snapshots" | "contents.cow_materializations" ->
            add s.name n
          | "sts.messages" ->
            add
              (if label "page" = Some "true" then "sts.page_msgs"
               else "sts.header_msgs")
              n
          | "asvm.msgs"
            when label "class" = Some "request" && label "group" = Some "transfer"
            ->
            add "asvm.request_msgs" n
          | _ -> ())
        | _ -> ())
      snap;
    let registry = Cluster.metrics cl in
    let hists =
      List.map
        (fun family ->
          let samples =
            List.concat_map
              (fun (s : Metrics.sample) ->
                match s.value with
                | Metrics.Histogram_v _ when s.name = family ->
                  [
                    Metrics.Histogram.values
                      (Metrics.Registry.histogram registry ~labels:s.labels family);
                  ]
                | _ -> [])
              snap
            |> Array.concat
          in
          Array.sort Float.compare samples;
          (family, samples))
        hist_families
    in
    (match Cluster.backend cl with
    | `Asvm a ->
      List.iter
        (fun (name, n) -> set ("asvm." ^ name) (float_of_int n))
        (Stats.Counters.to_list (Asvm.counters a));
      set "sts.retransmits" (float_of_int (Asvm.sts_retransmits a))
    | `Xmm x -> set "norma.msgs" (float_of_int (Xmm.ipc_messages x)));
    let pagers =
      distinct
        (Cluster.default_pager cl
        :: List.concat_map
             (fun (obj, _) -> Cluster.object_pagers cl obj)
             (Cluster.registered_objects cl))
    in
    List.iter
      (fun p ->
        add "pager.supplies" (float_of_int (Store_pager.supplies p));
        add "pager.stores" (float_of_int (Store_pager.stores p)))
      pagers;
    List.iter
      (fun d ->
        add "disk.reads" (float_of_int (Disk.reads d));
        add "disk.writes" (float_of_int (Disk.writes d)))
      (distinct (List.map Store_pager.disk pagers));
    { counts; hists }
  end

(* The samples of [after] that [before] does not hold: both are sorted
   and [before] is a sub-multiset of [after] (histograms only grow). *)
let window_samples ~before ~after family =
  let find r = Option.value ~default:[||] (List.assoc_opt family r.hists) in
  let b = find before and a = find after in
  let kept = Array.make (Array.length a - Array.length b) 0. in
  let i = ref 0 and k = ref 0 in
  Array.iter
    (fun x ->
      if !i < Array.length b && Float.equal b.(!i) x then incr i
      else begin
        kept.(!k) <- x;
        incr k
      end)
    a;
  kept

(* Linear interpolation between order statistics, as
   [Metrics.Histogram.percentile]; 0 for an empty sample. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

(* Measured-phase totals of a workload: the sum of [after - before] over
   every cell, with the window's latency samples pooled. *)
type window = {
  sums : (string, float) Hashtbl.t;
  samples : (string, float array list) Hashtbl.t;
}

let window () = { sums = Hashtbl.create 64; samples = Hashtbl.create 4 }

let accumulate w ~before ~after =
  Hashtbl.iter
    (fun name v ->
      let d = v -. get before name in
      Hashtbl.replace w.sums name
        (d +. Option.value ~default:0. (Hashtbl.find_opt w.sums name)))
    after.counts;
  List.iter
    (fun family ->
      Hashtbl.replace w.samples family
        (window_samples ~before ~after family
        :: Option.value ~default:[] (Hashtbl.find_opt w.samples family)))
    hist_families

let total w name = Option.value ~default:0. (Hashtbl.find_opt w.sums name)

let window_percentile w family p =
  let xs =
    Array.concat (Option.value ~default:[] (Hashtbl.find_opt w.samples family))
  in
  Array.sort Float.compare xs;
  percentile xs p
