module Network = Asvm_mesh.Network
module Engine = Asvm_simcore.Engine
module Trace = Asvm_obs.Trace

exception Protocol_violation of { node : int; what : string }

let () =
  Printexc.register_printer (function
    | Protocol_violation { node; what } ->
      Some (Printf.sprintf "Sts.Protocol_violation(node=%d: %s)" node what)
    | _ -> None)

type decision = { deliveries : float list }

let pass = { deliveries = [ 0. ] }

type interposer =
  now:float ->
  index:int ->
  src:int ->
  dst:int ->
  carries_page:bool ->
  decision

type reliability = {
  ack_timeout_ms : float;
  backoff : float;
  max_retransmits : int;
}

(* The worst honest round trip is a page-carrying reply into a busy
   receive station (~1.5 ms); 4 ms leaves headroom without stretching
   the recovery tail, and doubling keeps a congested link from melting
   under its own retransmissions. *)
let default_reliability =
  { ack_timeout_ms = 4.0; backoff = 2.0; max_retransmits = 10 }

type config = {
  sw_send_ms : float;
  sw_recv_ms : float;
  page_extra_ms : float;
  header_bytes : int;
  page_buffers : int;
  reliability : reliability option;
  interposer : interposer option;
}

(* Both software paths are thin (a 32-byte untyped block goes straight
   to/from the mesh interface), so back-to-back messages — e.g. the
   owner invalidating a long reader list and absorbing the acks —
   pipeline at ~0.09 ms each: the per-reader slope of the paper's
   figure 10. *)
let default_config =
  {
    sw_send_ms = 0.09;
    sw_recv_ms = 0.09;
    page_extra_ms = 0.45;
    header_bytes = 32;
    page_buffers = 64;
    reliability = None;
    interposer = None;
  }

let page_bytes = 8192

module Metrics = Asvm_obs.Metrics

(* Metric handles, resolved once at [create]: the per-message path must
   not pay the registry's string+label hashtable lookup or allocate a
   label list. *)
type handles = {
  h_msgs_plain : Metrics.Counter.t;  (* sts.messages{page=false} *)
  h_msgs_page : Metrics.Counter.t;  (* sts.messages{page=true} *)
  h_bytes : Metrics.Counter.t;
  h_buffers : Metrics.Gauge.t;
}

(* Registered only when reliability is on, so the disabled-case metric
   snapshot carries no reliability series. *)
type rel_handles = {
  h_retransmits : Metrics.Counter.t;
  h_timeouts : Metrics.Counter.t;
  h_dups : Metrics.Counter.t;
}

(* One logical message awaiting acknowledgment at its sender.
   [p_src_inc] / [p_dst_inc] are the endpoints' crash incarnations at
   send time: a delivery whose endpoint has since crashed is stale even
   if the node has already rejoined. *)
type 'msg pending = {
  p_seq : int;
  p_src : int;
  p_dst : int;
  p_page : bool;
  p_payload : 'msg;
  p_src_inc : int;
  p_dst_inc : int;
  mutable p_acked : bool;
  mutable p_retransmits : int;
}

type 'msg reliable = {
  rel : reliability;
  next_seq : (int * int, int) Hashtbl.t;  (* per (src, dst) link *)
  pending : (int * int * int, 'msg pending) Hashtbl.t;  (* (src, dst, seq) *)
  delivered : (int * int * int, unit) Hashtbl.t;  (* receiver-side dedup *)
  rh : rel_handles;
}

type 'msg dead_letter =
  src:int -> dst:int -> src_dead:bool -> dst_dead:bool -> 'msg -> unit

type 'msg t = {
  net : Network.t;
  config : config;
  handlers : ('msg -> unit) option array;
  reserved : int array;
  waiters : (unit -> unit) Queue.t array;  (* per node, oldest first *)
  mutable transmissions : int;  (* interposer index: data copies only *)
  reliable : 'msg reliable option;
  handles : handles;
  trace : Trace.t option;
  mutable on_dead_letter : 'msg dead_letter option;
}

let create ?(metrics = Metrics.Registry.create ()) ?trace net config =
  let n = Asvm_mesh.Topology.nodes (Network.topology net) in
  let counter = Metrics.Registry.counter metrics in
  {
    net;
    config;
    handlers = Array.make n None;
    reserved = Array.make n 0;
    waiters = Array.init n (fun _ -> Queue.create ());
    transmissions = 0;
    reliable =
      Option.map
        (fun rel ->
          {
            rel;
            next_seq = Hashtbl.create 64;
            pending = Hashtbl.create 64;
            delivered = Hashtbl.create 256;
            rh =
              {
                h_retransmits = counter "sts.retransmits";
                h_timeouts = counter "sts.timeouts";
                h_dups = counter "sts.duplicates_dropped";
              };
          })
        config.reliability;
    handles =
      {
        h_msgs_plain = counter "sts.messages" ~labels:[ ("page", "false") ];
        h_msgs_page = counter "sts.messages" ~labels:[ ("page", "true") ];
        h_bytes = counter "sts.bytes";
        h_buffers = Metrics.Registry.gauge metrics "sts.buffers_reserved";
      };
    trace;
    on_dead_letter = None;
  }

let register t ~node handler = t.handlers.(node) <- Some handler
let set_on_dead_letter t f = t.on_dead_letter <- f

(* current credit-pool pressure, summed over nodes *)
let buffers_gauge t delta = Metrics.Gauge.add t.handles.h_buffers delta

let reserve_buffer t ~node =
  if t.reserved.(node) >= t.config.page_buffers then false
  else begin
    t.reserved.(node) <- t.reserved.(node) + 1;
    buffers_gauge t 1.;
    true
  end

let engine t = Network.engine t.net
let now t = Engine.now (engine t)

let acquire_buffer t ~node k =
  if Network.is_down t.net node then ()
  else if reserve_buffer t ~node then k ()
  else Queue.push k t.waiters.(node)

let release_buffer t ~node =
  if t.reserved.(node) <= 0 then
    raise
      (Protocol_violation { node; what = "release_buffer: pool underflow" });
  let q = t.waiters.(node) in
  if Queue.is_empty q then begin
    t.reserved.(node) <- t.reserved.(node) - 1;
    buffers_gauge t (-1.)
  end
  else begin
    (* The credit passes to the oldest waiter without returning to the
       pool.  The waiter runs as a fresh engine event: the releasing
       handler may still be updating the state the waiter reads.  A
       crash in between voids the credit (see [crash_node]) and the
       waiter with it. *)
    let k = Queue.take q in
    let inc = Network.incarnation t.net node in
    Engine.schedule (engine t) ~delay:0. (fun () ->
        if Network.incarnation t.net node = inc then k ())
  end

let buffers_reserved t ~node = t.reserved.(node)

let note t ~node ~category = Trace.note t.trace ~time:(now t) ~node ~category

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

(* Hand a message that can no longer be delivered to the protocol's
   salvage hook.  Always fired as a fresh engine event: the send path
   may detect a dead destination while the caller is mid-operation, and
   the salvage hook must not reenter protocol state being updated. *)
let dead_letter t ~src ~dst ~src_dead ~dst_dead msg =
  note t ~node:src ~category:"sts.dead_letter" "dst=%d src_dead=%b dst_dead=%b"
    dst src_dead dst_dead;
  match t.on_dead_letter with
  | None -> ()
  | Some f ->
    Engine.schedule (engine t) ~delay:0. (fun () ->
        f ~src ~dst ~src_dead ~dst_dead msg)

(* ------------------------------------------------------------------ *)
(* Physical transmission                                               *)
(* ------------------------------------------------------------------ *)

(* Push one copy of a data message through the network, subject to the
   logical-level interposer.  [k] runs at the receiver after transport
   costs, once per copy the interposer lets through. *)
let transmit t ~src ~dst ~carries_page k =
  let c = t.config in
  let extra = if carries_page then c.page_extra_ms else 0. in
  let bytes = c.header_bytes + if carries_page then page_bytes else 0 in
  let net_send () =
    Network.send t.net ~src ~dst ~bytes ~sw_send:(c.sw_send_ms +. extra)
      ~sw_recv:(c.sw_recv_ms +. extra) k
  in
  match c.interposer with
  | None -> net_send ()
  | Some f ->
    let index = t.transmissions in
    t.transmissions <- t.transmissions + 1;
    let d = f ~now:(now t) ~index ~src ~dst ~carries_page in
    List.iter
      (fun delay ->
        if delay <= 0. then net_send ()
        else Engine.schedule (engine t) ~delay net_send)
      d.deliveries

(* Acks are plain 32-byte messages, below the interposer (the network
   layer can still perturb them) — losing an ack is indistinguishable
   from losing the data and triggers the same retransmission. *)
let send_ack t ~src ~dst k =
  let c = t.config in
  Network.send t.net ~src ~dst ~bytes:c.header_bytes ~sw_send:c.sw_send_ms
    ~sw_recv:c.sw_recv_ms k

(* ------------------------------------------------------------------ *)
(* Reliability                                                         *)
(* ------------------------------------------------------------------ *)

let on_ack r key =
  match Hashtbl.find_opt r.pending key with
  | None -> () (* ack of a retransmitted copy that already completed *)
  | Some p ->
    p.p_acked <- true;
    Hashtbl.remove r.pending key

(* Receiver side of a reliable data message: suppress duplicates,
   acknowledge every copy (the sender may have missed earlier acks),
   hand fresh messages to the registered handler. *)
let deliver_reliable t r (p : 'msg pending) =
  let key = (p.p_src, p.p_dst, p.p_seq) in
  let src_dead = not (Network.current t.net p.p_src p.p_src_inc)
  and dst_dead = not (Network.current t.net p.p_dst p.p_dst_inc) in
  if src_dead || dst_dead then begin
    (* The delivered table doubles as a dead-letter dedup: only the
       first in-flight copy of the logical message is salvaged.  The
       quiet [on_ack] kills the sender's retransmission timer (if the
       crash purge has not already); the dead letter itself is the
       failure notification. *)
    if not (Hashtbl.mem r.delivered key) then begin
      Hashtbl.replace r.delivered key ();
      on_ack r key;
      dead_letter t ~src:p.p_src ~dst:p.p_dst ~src_dead ~dst_dead p.p_payload
    end
  end
  else begin
  let fresh = not (Hashtbl.mem r.delivered key) in
  if fresh then Hashtbl.replace r.delivered key ()
  else begin
    Metrics.Counter.incr r.rh.h_dups;
    note t ~node:p.p_dst ~category:"sts.duplicate_dropped" "src=%d seq=%d"
      p.p_src p.p_seq
  end;
  send_ack t ~src:p.p_dst ~dst:p.p_src (fun () -> on_ack r key);
  if fresh then
    match t.handlers.(p.p_dst) with
    | Some handler -> handler p.p_payload
    | None ->
      raise
        (Protocol_violation
           { node = p.p_dst; what = "handler unregistered mid-flight" })
  end

let transmit_reliable t r (p : 'msg pending) =
  transmit t ~src:p.p_src ~dst:p.p_dst ~carries_page:p.p_page (fun () ->
      deliver_reliable t r p)

let rec arm_timer t r (p : 'msg pending) ~timeout =
  Engine.schedule (engine t) ~delay:timeout (fun () ->
      if not p.p_acked then begin
        Metrics.Counter.incr r.rh.h_timeouts;
        note t ~node:p.p_src ~category:"sts.timeout" "dst=%d seq=%d after %.2fms"
          p.p_dst p.p_seq timeout;
        if p.p_retransmits >= r.rel.max_retransmits then
          raise
            (Protocol_violation
               {
                 node = p.p_src;
                 what =
                   Printf.sprintf
                     "reliable send to node %d gave up after %d retransmits \
                      (seq=%d)"
                     p.p_dst r.rel.max_retransmits p.p_seq;
               })
        else begin
          p.p_retransmits <- p.p_retransmits + 1;
          Metrics.Counter.incr r.rh.h_retransmits;
          note t ~node:p.p_src ~category:"sts.retransmit"
            "dst=%d seq=%d attempt=%d" p.p_dst p.p_seq (p.p_retransmits + 1);
          transmit_reliable t r p;
          arm_timer t r p ~timeout:(timeout *. r.rel.backoff)
        end
      end)

(* ------------------------------------------------------------------ *)
(* Logical send                                                        *)
(* ------------------------------------------------------------------ *)

let count_send t ~carries_page =
  let h = t.handles in
  Metrics.Counter.incr (if carries_page then h.h_msgs_page else h.h_msgs_plain);
  Metrics.Counter.incr
    ~by:(t.config.header_bytes + if carries_page then page_bytes else 0)
    h.h_bytes

let send t ~src ~dst ~carries_page msg =
  (* A dead node sends nothing: protocol closures scheduled before the
     crash may still run, but their messages die silently here. *)
  if Network.is_down t.net src then ()
  else begin
    let handler =
      match t.handlers.(dst) with
      | Some h -> h
      | None ->
        raise
          (Protocol_violation
             { node = dst; what = "send: no handler registered at destination" })
    in
    if Network.is_down t.net dst then
      (* The destination is known dead at send time: the message is
         counted (the sender honestly pays for it) but goes straight to
         the salvage hook.  The reserved-buffer check is skipped — the
         dead node's credit pool was zeroed at the crash. *)
      begin
        count_send t ~carries_page;
        dead_letter t ~src ~dst ~src_dead:false ~dst_dead:true msg
      end
    else begin
      if carries_page && t.reserved.(dst) <= 0 then
        raise
          (Protocol_violation
             {
               node = dst;
               what =
                 Printf.sprintf
                   "send: page sent without a reserved receive buffer (src=%d)"
                   src;
             });
      count_send t ~carries_page;
      match t.reliable with
      | None ->
        let src_inc = Network.incarnation t.net src
        and dst_inc = Network.incarnation t.net dst in
        transmit t ~src ~dst ~carries_page (fun () ->
            let src_dead = not (Network.current t.net src src_inc)
            and dst_dead = not (Network.current t.net dst dst_inc) in
            if src_dead || dst_dead then
              dead_letter t ~src ~dst ~src_dead ~dst_dead msg
            else handler msg)
      | Some r ->
        let link = (src, dst) in
        let seq =
          match Hashtbl.find_opt r.next_seq link with Some s -> s | None -> 0
        in
        Hashtbl.replace r.next_seq link (seq + 1);
        let p =
          {
            p_seq = seq;
            p_src = src;
            p_dst = dst;
            p_page = carries_page;
            p_payload = msg;
            p_src_inc = Network.incarnation t.net src;
            p_dst_inc = Network.incarnation t.net dst;
            p_acked = false;
            p_retransmits = 0;
          }
        in
        Hashtbl.replace r.pending (src, dst, seq) p;
        transmit_reliable t r p;
        arm_timer t r p ~timeout:r.rel.ack_timeout_ms
    end
  end

(* ------------------------------------------------------------------ *)
(* Crash teardown                                                      *)
(* ------------------------------------------------------------------ *)

let crash_node t ~node =
  (* The node's preallocated receive buffers die with it, and so do the
     requests waiting for one; compensate the cluster-wide gauge so live
     nodes still balance to zero. *)
  buffers_gauge t (-.float_of_int t.reserved.(node));
  t.reserved.(node) <- 0;
  Queue.clear t.waiters.(node);
  match t.reliable with
  | None -> ()
  | Some r ->
    (* Quietly retire every unacknowledged message the node sent or was
       to receive: marking it acked disarms the retransmission timer
       (see [arm_timer]'s guard) without a protocol violation.  In-flight
       copies are handled by the delivery-time liveness gate. *)
    let stale =
      Hashtbl.fold
        (fun key p acc ->
          if p.p_src = node || p.p_dst = node then (key, p) :: acc else acc)
        r.pending []
    in
    List.iter
      (fun (key, p) ->
        p.p_acked <- true;
        Hashtbl.remove r.pending key)
      stale

let page_messages t = Metrics.Counter.value t.handles.h_msgs_page
let messages t = Metrics.Counter.value t.handles.h_msgs_plain + page_messages t

let retransmits t =
  match t.reliable with
  | None -> 0
  | Some r -> Metrics.Counter.value r.rh.h_retransmits

let duplicates_dropped t =
  match t.reliable with None -> 0 | Some r -> Metrics.Counter.value r.rh.h_dups
