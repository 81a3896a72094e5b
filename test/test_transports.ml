(* Tests for NORMA-IPC and STS transports. *)

module Engine = Asvm_simcore.Engine
module Topology = Asvm_mesh.Topology
module Network = Asvm_mesh.Network
module Ipc = Asvm_norma.Ipc
module Sts = Asvm_sts.Sts

let make ?(nodes = 4) () =
  let e = Engine.create () in
  let topo = Topology.create ~nodes in
  let net = Network.create e Network.paragon_config topo in
  (e, net)

(* ---------------- NORMA ---------------- *)

let test_norma_delivery () =
  let e, net = make () in
  let ipc = Ipc.create net Ipc.default_config in
  let got = ref None in
  let p =
    Ipc.port ipc ~node:2 ~handler:(fun _port msg ->
        got := Some (msg, Engine.now e))
  in
  Alcotest.(check int) "port node" 2 (Ipc.port_node p);
  Ipc.send ipc ~src:0 ~dst:p ~carries_page:false "hello";
  Engine.run e;
  (match !got with
  | Some ("hello", t) ->
    Alcotest.(check bool) "paid heavy software path" true (t > 1.0)
  | _ -> Alcotest.fail "message not delivered");
  Alcotest.(check int) "count" 1 (Ipc.messages ipc)

let test_norma_page_slower () =
  let e, net = make () in
  let ipc = Ipc.create net Ipc.default_config in
  let t_hdr = ref 0. and t_page = ref 0. in
  let p1 = Ipc.port ipc ~node:1 ~handler:(fun _ () -> t_hdr := Engine.now e) in
  let p2 = Ipc.port ipc ~node:2 ~handler:(fun _ () -> t_page := Engine.now e) in
  Ipc.send ipc ~src:0 ~dst:p1 ~carries_page:false ();
  Ipc.send ipc ~src:3 ~dst:p2 ~carries_page:true ();
  Engine.run e;
  Alcotest.(check bool) "page message costs more" true (!t_page > !t_hdr);
  Alcotest.(check int) "page message counted" 1 (Ipc.page_messages ipc)

let test_norma_rights_cost () =
  let e, net = make () in
  let ipc = Ipc.create net Ipc.default_config in
  let t1 = ref 0. and t5 = ref 0. in
  let p1 = Ipc.port ipc ~node:1 ~handler:(fun _ () -> t1 := Engine.now e) in
  let p2 = Ipc.port ipc ~node:2 ~handler:(fun _ () -> t5 := Engine.now e) in
  Ipc.send ipc ~src:0 ~dst:p1 ~carries_page:false ~rights:1 ();
  Ipc.send ipc ~src:3 ~dst:p2 ~carries_page:false ~rights:5 ();
  Engine.run e;
  Alcotest.(check bool) "port rights cost" true (!t5 > !t1)

(* ---------------- STS ---------------- *)

let test_sts_delivery_and_economy () =
  let e, net = make () in
  let sts = Sts.create net Sts.default_config in
  let ipc = Ipc.create net Ipc.default_config in
  let t_sts = ref 0. in
  Sts.register sts ~node:1 (fun () -> t_sts := Engine.now e);
  Sts.send sts ~src:0 ~dst:1 ~carries_page:false ();
  Engine.run e;
  let t_norma = ref 0. in
  let e2, net2 = make () in
  ignore net;
  let ipc2 = Ipc.create net2 Ipc.default_config in
  ignore ipc;
  let p = Ipc.port ipc2 ~node:1 ~handler:(fun _ () -> t_norma := Engine.now e2) in
  Ipc.send ipc2 ~src:0 ~dst:p ~carries_page:false ();
  Engine.run e2;
  Alcotest.(check bool)
    "STS is much cheaper than NORMA (paper: NORMA ~90% of fault latency)"
    true
    (!t_sts *. 2. < !t_norma)

let test_sts_requires_handler () =
  let _, net = make () in
  let sts = Sts.create net Sts.default_config in
  Alcotest.check_raises "no handler"
    (Sts.Protocol_violation
       { node = 3; what = "send: no handler registered at destination" })
    (fun () -> Sts.send sts ~src:0 ~dst:3 ~carries_page:false ())

let test_sts_flow_control () =
  let e, net = make () in
  let config = { Sts.default_config with page_buffers = 2 } in
  let sts = Sts.create net config in
  Sts.register sts ~node:1 ignore;
  (* pages may only flow against a reserved receive buffer; the
     violation names the node whose credit pool was bypassed *)
  Alcotest.check_raises "unreserved page send"
    (Sts.Protocol_violation
       {
         node = 1;
         what = "send: page sent without a reserved receive buffer (src=0)";
       })
    (fun () -> Sts.send sts ~src:0 ~dst:1 ~carries_page:true ());
  Alcotest.(check bool) "reserve 1" true (Sts.reserve_buffer sts ~node:1);
  Alcotest.(check bool) "reserve 2" true (Sts.reserve_buffer sts ~node:1);
  Alcotest.(check bool) "pool exhausted" false (Sts.reserve_buffer sts ~node:1);
  Sts.send sts ~src:0 ~dst:1 ~carries_page:true ();
  Sts.release_buffer sts ~node:1;
  Alcotest.(check int) "one still reserved" 1 (Sts.buffers_reserved sts ~node:1);
  Sts.release_buffer sts ~node:1;
  Alcotest.check_raises "over-release"
    (Sts.Protocol_violation { node = 1; what = "release_buffer: pool underflow" })
    (fun () -> Sts.release_buffer sts ~node:1);
  Engine.run e;
  Alcotest.(check int) "page message counted" 1 (Sts.page_messages sts)

let test_sts_buffer_waiters () =
  let e, net = make () in
  let config = { Sts.default_config with page_buffers = 2 } in
  let sts = Sts.create net config in
  let ran = ref [] in
  let acquire ~node id = Sts.acquire_buffer sts ~node (fun () -> ran := id :: !ran) in
  let ran_so_far () = List.rev !ran in
  (* two credits: two acquisitions run at once, the next two queue *)
  List.iter (acquire ~node:1) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "two run at once" [ 1; 2 ] (ran_so_far ());
  Alcotest.(check int) "pool full" 2 (Sts.buffers_reserved sts ~node:1);
  Alcotest.(check bool) "no try while waiters queue" false
    (Sts.reserve_buffer sts ~node:1);
  (* each release hands its credit to the oldest waiter on the next
     engine step, never inside [release_buffer] *)
  Sts.release_buffer sts ~node:1;
  Alcotest.(check (list int)) "not inside release" [ 1; 2 ] (ran_so_far ());
  Alcotest.(check int) "credit handed, not freed" 2
    (Sts.buffers_reserved sts ~node:1);
  Alcotest.(check bool) "handoff is one event" true (Engine.step e);
  Alcotest.(check (list int)) "oldest waiter first" [ 1; 2; 3 ] (ran_so_far ());
  Sts.release_buffer sts ~node:1;
  Alcotest.(check int) "still handed" 2 (Sts.buffers_reserved sts ~node:1);
  Engine.run e;
  Alcotest.(check (list int)) "then the next" [ 1; 2; 3; 4 ] (ran_so_far ());
  Sts.release_buffer sts ~node:1;
  Alcotest.(check int) "last two releases free" 1
    (Sts.buffers_reserved sts ~node:1);
  Sts.release_buffer sts ~node:1;
  Alcotest.(check int) "pool empty" 0 (Sts.buffers_reserved sts ~node:1);
  Alcotest.(check int) "no handoff left" 0 (Engine.pending e);
  (* a down node acquires nothing *)
  Network.set_down net 3;
  acquire ~node:3 5;
  Engine.run e;
  Alcotest.(check (list int)) "down node runs nothing" [ 1; 2; 3; 4 ]
    (ran_so_far ());
  Alcotest.(check int) "down node reserves nothing" 0
    (Sts.buffers_reserved sts ~node:3);
  (* a crash drops queued waiters with the credits *)
  ran := [];
  List.iter (acquire ~node:2) [ 6; 7; 8 ];
  Network.set_down net 2;
  Sts.crash_node sts ~node:2;
  Engine.run e;
  Alcotest.(check int) "crash zeroes the pool" 0
    (Sts.buffers_reserved sts ~node:2);
  Alcotest.(check (list int)) "queued waiter dropped" [ 6; 7 ] (ran_so_far ());
  (* after the rejoin, credits go to the new waiters only *)
  Network.set_up net 2;
  List.iter (acquire ~node:2) [ 9; 10; 11 ];
  Sts.release_buffer sts ~node:2;
  Engine.run e;
  Alcotest.(check (list int)) "no stale waiter after rejoin"
    [ 6; 7; 9; 10; 11 ] (ran_so_far ());
  (* a crash also voids a credit already handed to a waiter *)
  acquire ~node:2 12;
  Sts.release_buffer sts ~node:2;
  Network.set_down net 2;
  Sts.crash_node sts ~node:2;
  Engine.run e;
  Alcotest.(check int) "handoff voided" 0 (Sts.buffers_reserved sts ~node:2);
  Alcotest.(check (list int)) "handed waiter dropped" [ 6; 7; 9; 10; 11 ]
    (ran_so_far ())

let test_sts_reliable_retransmit () =
  (* the logical-level interposer eats the first transmission; the
     reliability layer must notice the missing ack and retransmit *)
  let e, net = make () in
  let interposer ~now:_ ~index ~src:_ ~dst:_ ~carries_page:_ =
    if index = 0 then Sts.{ deliveries = [] } else Sts.pass
  in
  let config =
    {
      Sts.default_config with
      reliability = Some Sts.default_reliability;
      interposer = Some interposer;
    }
  in
  let sts = Sts.create net config in
  let got = ref 0 in
  Sts.register sts ~node:2 (fun () -> incr got);
  Sts.send sts ~src:0 ~dst:2 ~carries_page:false ();
  Engine.run e;
  Alcotest.(check int) "delivered exactly once" 1 !got;
  Alcotest.(check int) "one retransmission" 1 (Sts.retransmits sts);
  Alcotest.(check int) "still one logical message" 1 (Sts.messages sts)

let test_sts_reliable_dedup () =
  (* every transmission is duplicated; the receiver must suppress the
     copies and still ack them all *)
  let e, net = make () in
  let interposer ~now:_ ~index:_ ~src:_ ~dst:_ ~carries_page:_ =
    Sts.{ deliveries = [ 0.; 0.05 ] }
  in
  let config =
    {
      Sts.default_config with
      reliability = Some Sts.default_reliability;
      interposer = Some interposer;
    }
  in
  let sts = Sts.create net config in
  let got = ref 0 in
  Sts.register sts ~node:1 (fun () -> incr got);
  for _ = 1 to 3 do
    Sts.send sts ~src:0 ~dst:1 ~carries_page:false ()
  done;
  Engine.run e;
  Alcotest.(check int) "each logical message delivered once" 3 !got;
  Alcotest.(check int) "duplicates suppressed" 3 (Sts.duplicates_dropped sts);
  Alcotest.(check int) "no retransmissions needed" 0 (Sts.retransmits sts)

let test_sts_reliable_gives_up () =
  (* a black-holed link must surface as a structured violation rather
     than retrying forever *)
  let e, net = make () in
  let interposer ~now:_ ~index:_ ~src:_ ~dst:_ ~carries_page:_ =
    Sts.{ deliveries = [] }
  in
  let config =
    {
      Sts.default_config with
      reliability =
        Some { Sts.default_reliability with max_retransmits = 2 };
      interposer = Some interposer;
    }
  in
  let sts = Sts.create net config in
  Sts.register sts ~node:1 ignore;
  Sts.send sts ~src:0 ~dst:1 ~carries_page:false ();
  Alcotest.check_raises "link declared broken"
    (Sts.Protocol_violation
       {
         node = 0;
         what = "reliable send to node 1 gave up after 2 retransmits (seq=0)";
       })
    (fun () -> Engine.run e)

let test_sts_message_ordering_per_pair () =
  (* messages between one src/dst pair arrive in send order (same
     stations, same wire) *)
  let e, net = make () in
  let sts = Sts.create net Sts.default_config in
  let log = ref [] in
  Sts.register sts ~node:2 (fun i -> log := i :: !log);
  for i = 1 to 5 do
    Sts.send sts ~src:0 ~dst:2 ~carries_page:false i
  done;
  Engine.run e;
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let () =
  Alcotest.run "transports"
    [
      ( "norma",
        [
          Alcotest.test_case "delivery" `Quick test_norma_delivery;
          Alcotest.test_case "page cost" `Quick test_norma_page_slower;
          Alcotest.test_case "rights cost" `Quick test_norma_rights_cost;
        ] );
      ( "sts",
        [
          Alcotest.test_case "delivery + economy" `Quick test_sts_delivery_and_economy;
          Alcotest.test_case "requires handler" `Quick test_sts_requires_handler;
          Alcotest.test_case "flow control" `Quick test_sts_flow_control;
          Alcotest.test_case "buffer waiters" `Quick test_sts_buffer_waiters;
          Alcotest.test_case "ordering" `Quick test_sts_message_ordering_per_pair;
          Alcotest.test_case "reliable retransmit" `Quick
            test_sts_reliable_retransmit;
          Alcotest.test_case "reliable dedup" `Quick test_sts_reliable_dedup;
          Alcotest.test_case "reliable gives up" `Quick
            test_sts_reliable_gives_up;
        ] );
    ]
