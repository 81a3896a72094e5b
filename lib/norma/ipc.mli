(** NORMA-IPC model: Mach IPC extended across node boundaries.

    This is the transport XMM rides on. Its cost structure is the point:
    every message pays a heavy software path for typed-message marshalling
    and port-right bookkeeping, which the paper measured at ~90 % of the
    latency of an XMM remote page fault. Messages are delivered to a
    port's registered handler on the port's receive node.

    The ['msg] parameter is the protocol's message type (XMMI for XMM);
    ports are typed so senders cannot deliver foreign messages. *)

type config = {
  sw_send_ms : float;  (** sender marshalling + kernel entry *)
  sw_recv_ms : float;  (** receiver demarshalling + dispatch *)
  per_right_ms : float;  (** per transferred port right *)
  page_extra_ms : float;  (** extra software cost each side for 8 KB data *)
  header_bytes : int;  (** typed header + kernel message envelope *)
}

(** Calibrated so that a header-only NORMA round trip costs ~2.3 ms and a
    page-carrying message ~2.1 ms one way (see DESIGN.md section 5). *)
val default_config : config

type 'msg t
type 'msg port

val create : Asvm_mesh.Network.t -> config -> 'msg t

(** [port t ~node ~handler] allocates a receive right on [node]. *)
val port : 'msg t -> node:int -> handler:('msg port -> 'msg -> unit) -> 'msg port

val port_node : 'msg port -> int

(** [send t ~src ~dst ~carries_page ?rights msg] queues [msg] for
    delivery to [dst]'s handler. [carries_page] adds an 8 KB payload;
    [rights] is the number of port rights moved in the message. *)
val send :
  'msg t -> src:int -> dst:'msg port -> carries_page:bool -> ?rights:int -> 'msg -> unit

(** {1 Crash support (see [docs/AVAILABILITY.md])}

    Same discipline as the STS transport: the mesh liveness registry is
    consulted at send time and again when the delivery continuation
    runs.  A dead sender's messages vanish; messages to (or in flight
    around) a crashed endpoint divert to the dead-letter hook. *)

(** [src_dead] / [dst_dead] say which endpoint's crash killed the
    message.  Runs as a fresh engine event. *)
type 'msg dead_letter =
  src:int -> dst:int -> src_dead:bool -> dst_dead:bool -> 'msg -> unit

val set_on_dead_letter : 'msg t -> 'msg dead_letter option -> unit

(** Messages sent so far (for protocol-economy comparisons). *)
val messages : 'msg t -> int

(** Messages that carried page contents. *)
val page_messages : 'msg t -> int
