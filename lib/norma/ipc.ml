module Network = Asvm_mesh.Network

type config = {
  sw_send_ms : float;
  sw_recv_ms : float;
  per_right_ms : float;
  page_extra_ms : float;
  header_bytes : int;
}

let default_config =
  {
    sw_send_ms = 0.85;
    sw_recv_ms = 0.85;
    per_right_ms = 0.08;
    page_extra_ms = 0.45;
    header_bytes = 256;
  }

let page_bytes = 8192

type 'msg port = { node : int; handler : 'msg port -> 'msg -> unit }

type 'msg dead_letter =
  src:int -> dst:int -> src_dead:bool -> dst_dead:bool -> 'msg -> unit

type 'msg t = {
  net : Network.t;
  config : config;
  mutable messages : int;
  mutable page_messages : int;
  mutable on_dead_letter : 'msg dead_letter option;
}

let create net config =
  {
    net;
    config;
    messages = 0;
    page_messages = 0;
    on_dead_letter = None;
  }

let set_on_dead_letter t f = t.on_dead_letter <- f

let port _t ~node ~handler = { node; handler }
let port_node p = p.node

(* Same liveness discipline as STS (see lib/sts): endpoints' crash
   incarnations are captured at send time and re-checked when the
   delivery continuation actually runs, so messages queued behind a
   busy station are still caught.  Undeliverable messages go to the
   dead-letter hook as a fresh engine event. *)
let dead_letter t ~src ~dst ~src_dead ~dst_dead msg =
  match t.on_dead_letter with
  | None -> ()
  | Some f ->
    Asvm_simcore.Engine.schedule (Network.engine t.net) ~delay:0. (fun () ->
        f ~src ~dst ~src_dead ~dst_dead msg)

let send t ~src ~dst ~carries_page ?(rights = 1) msg =
  if Network.is_down t.net src then ()
  else begin
    t.messages <- t.messages + 1;
    if carries_page then t.page_messages <- t.page_messages + 1;
    if Network.is_down t.net dst.node then
      dead_letter t ~src ~dst:dst.node ~src_dead:false ~dst_dead:true msg
    else begin
      let c = t.config in
      let extra = if carries_page then c.page_extra_ms else 0. in
      let rights_cost = float_of_int rights *. c.per_right_ms in
      let bytes = c.header_bytes + if carries_page then page_bytes else 0 in
      let src_inc = Network.incarnation t.net src
      and dst_inc = Network.incarnation t.net dst.node in
      Network.send t.net ~src ~dst:dst.node ~bytes
        ~sw_send:(c.sw_send_ms +. rights_cost +. extra)
        ~sw_recv:(c.sw_recv_ms +. rights_cost +. extra)
        (fun () ->
          let src_dead = not (Network.current t.net src src_inc)
          and dst_dead = not (Network.current t.net dst.node dst_inc) in
          if src_dead || dst_dead then
            dead_letter t ~src ~dst:dst.node ~src_dead ~dst_dead msg
          else dst.handler dst msg)
    end
  end

let messages t = t.messages
let page_messages t = t.page_messages
