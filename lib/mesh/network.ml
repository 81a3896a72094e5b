module Engine = Asvm_simcore.Engine
module Station = Asvm_simcore.Station

type config = {
  fixed_ms : float;
  per_hop_ms : float;
  per_byte_ms : float;
}

(* 200 MB/s per direction => 1 byte = 1 / (200 * 1024 * 1024) s ~ 4.77e-6 ms.
   Router delay on the Paragon mesh was ~40 ns per hop. *)
let paragon_config =
  { fixed_ms = 0.002; per_hop_ms = 0.00004; per_byte_ms = 4.77e-6 }

module Metrics = Asvm_obs.Metrics

(* Metric handles, resolved once at [create]: the per-message path must
   not pay the registry's string+label hashtable lookup. *)
type handles = {
  h_messages : Metrics.Counter.t;
  h_bytes : Metrics.Counter.t;
  h_tx_backlog : Metrics.Histogram.t;
}

type decision = { deliveries : float list }

let pass = { deliveries = [ 0. ] }

type interposer =
  now:float -> index:int -> src:int -> dst:int -> bytes:int -> decision

type t = {
  engine : Engine.t;
  config : config;
  topology : Topology.t;
  tx : Station.t array;
  rx : Station.t array;
  mutable interposer : interposer option;
  handles : handles;
  (* Liveness registry (crash/rejoin, see lib/chaos).  The network layer
     only records which nodes are down and how many times each has been
     (re)started; the transports decide what a dead endpoint means for
     their messages.  [incarnation] bumps on every crash so a transport
     can detect "the node I sent to is not the node that would receive
     this" even across a rejoin. *)
  down : bool array;
  incarnation : int array;
}

let create ?(metrics = Metrics.Registry.create ()) engine config topology =
  let n = Topology.nodes topology in
  {
    engine;
    config;
    topology;
    tx = Array.init n (fun _ -> Station.create engine);
    rx = Array.init n (fun _ -> Station.create engine);
    interposer = None;
    down = Array.make n false;
    incarnation = Array.make n 0;
    handles =
      {
        h_messages = Metrics.Registry.counter metrics "net.messages";
        h_bytes = Metrics.Registry.counter metrics "net.bytes";
        h_tx_backlog = Metrics.Registry.histogram metrics "net.tx_backlog_ms";
      };
  }

let topology t = t.topology
let engine t = t.engine
let set_interposer t f = t.interposer <- f

let set_down t node =
  if not t.down.(node) then begin
    t.down.(node) <- true;
    t.incarnation.(node) <- t.incarnation.(node) + 1
  end

let set_up t node = t.down.(node) <- false
let is_down t node = t.down.(node)
let incarnation t node = t.incarnation.(node)

let wire_latency t ~src ~dst ~bytes =
  if src = dst then 0.
  else
    let hops = float_of_int (Topology.hops t.topology src dst) in
    t.config.fixed_ms
    +. (hops *. t.config.per_hop_ms)
    +. (float_of_int bytes *. t.config.per_byte_ms)

let send t ~src ~dst ~bytes ~sw_send ~sw_recv k =
  let n = Topology.nodes t.topology in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg
      (Printf.sprintf
         "Network.send: node id out of range (src=%d dst=%d nodes=%d)" src dst
         n);
  let h = t.handles in
  let index = Metrics.Counter.value h.h_messages in
  Metrics.Counter.incr h.h_messages;
  Metrics.Counter.incr ~by:bytes h.h_bytes;
  (* how far behind this sender's tx station is right now: the queue
     depth seen by the message, expressed in milliseconds of backlog *)
  Metrics.Histogram.observe h.h_tx_backlog
    (Float.max 0. (Station.busy_until t.tx.(src) -. Engine.now t.engine));
  let wire = wire_latency t ~src ~dst ~bytes in
  (* The sender's software path occupies its tx station; the wire adds pure
     latency; the receiver's software path occupies its rx station. *)
  let deliver extra =
    Station.submit t.tx.(src) ~service:sw_send (fun () ->
        Engine.schedule t.engine ~delay:(wire +. extra) (fun () ->
            Station.submit t.rx.(dst) ~service:sw_recv k))
  in
  match t.interposer with
  | None -> deliver 0.
  | Some f -> (
    match
      (f ~now:(Engine.now t.engine) ~index ~src ~dst ~bytes).deliveries
    with
    | [] ->
      (* dropped on the wire: the sender still pays its software path,
         the receiver never hears about it *)
      Station.submit t.tx.(src) ~service:sw_send (fun () -> ())
    | ds -> List.iter deliver ds)

let messages t = Metrics.Counter.value t.handles.h_messages
let bytes_sent t = Metrics.Counter.value t.handles.h_bytes
