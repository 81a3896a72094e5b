(* Tests for whole-node crash & rejoin (docs/AVAILABILITY.md):
   deterministic crash cells under every workload, k-of-n rolling
   schedules under both protocols, jobs-independence of crash-cell
   outcomes, down-node silence after a crash, and convergence when the
   survivors' hint caches all point at the dead node. *)

module Cluster = Asvm_cluster.Cluster
module Config = Asvm_cluster.Config
module Prot = Asvm_machvm.Prot
module Vm = Asvm_machvm.Vm
module Vm_config = Asvm_machvm.Vm_config
module Address_map = Asvm_machvm.Address_map
module Trace = Asvm_obs.Trace
module Engine = Asvm_simcore.Engine
module Plan = Asvm_chaos.Plan
module Invariants = Asvm_chaos.Invariants
module Soak = Asvm_chaos.Soak
module Runner = Asvm_runner.Runner

(* ------------------- rolling-schedule arithmetic ------------------- *)

let test_rolling_shape () =
  let plan = Plan.rolling ~victims:[ 2; 3; 4 ] ~k:2 ~start_ms:1.0 ~every_ms:2.0 () in
  Alcotest.(check int) "one crash per victim" 3 (List.length plan.Plan.crashes);
  List.iteri
    (fun i (c : Plan.crash) ->
      Alcotest.(check int) "victims in order" (2 + i) c.Plan.c_victim;
      Alcotest.(check (float 1e-9))
        "cadence is start + i*every" (1.0 +. (float_of_int i *. 2.0))
        c.Plan.c_at_ms;
      match c.Plan.c_down_ms with
      | Some d ->
        (* just short of k periods, so k nodes are down at steady state *)
        Alcotest.(check (float 1e-9)) "down time is (k - 0.1) periods" 3.8 d
      | None -> Alcotest.fail "rolling crashes must rejoin")
    plan.Plan.crashes;
  Alcotest.(check bool) "k=0 rejected" true
    (try
       ignore (Plan.rolling ~victims:[ 1 ] ~k:0 ~start_ms:0. ~every_ms:1. ());
       false
     with Invalid_argument _ -> true)

(* --------------- deterministic crash cells, k = 1 ------------------ *)

let check_outcome tag (o : Soak.outcome) =
  Alcotest.(check bool) (tag ^ " completed") true o.Soak.completed;
  Alcotest.(check (list string)) (tag ^ " invariants hold") [] o.Soak.violations;
  Alcotest.(check bool) (tag ^ " crashes executed") true (o.Soak.crashes > 0);
  Alcotest.(check int) (tag ^ " every crash rejoined") o.Soak.crashes
    o.Soak.rejoins

let crash_cell (mm, workload, k) =
  let reliable = mm = Config.Mm_asvm in
  Soak.run_one ~quick:true ~mm ~workload
    ~plan:(Soak.crash_plan ~workload ~k)
    ~reliable ()

let test_crash_cells_each_workload () =
  let cells = List.map (fun w -> (Config.Mm_asvm, w, 1)) Soak.workloads in
  let outcomes = Runner.map crash_cell cells in
  List.iter2
    (fun (_, w, _) o -> check_outcome (Printf.sprintf "ASVM %s k=1" w) o)
    cells outcomes

(* ---------------- k = 2 rolling, both protocols -------------------- *)

let test_k2_rolling_both_protocols () =
  let cells =
    List.concat_map
      (fun w -> [ (Config.Mm_asvm, w, 2); (Config.Mm_xmm, w, 2) ])
      Soak.workloads
  in
  let outcomes = Runner.map crash_cell cells in
  List.iter2
    (fun (mm, w, _) o ->
      check_outcome (Printf.sprintf "%s %s k=2" (Config.mm_name mm) w) o)
    cells outcomes

(* ------------- outcomes independent of worker count ---------------- *)

let outcome_digest (o : Soak.outcome) =
  Printf.sprintf "%s/%s ok=%b v=%d crash=%d rejoin=%d lost=%d sim=%.6f"
    (Config.mm_name o.Soak.mm) o.Soak.workload o.Soak.completed
    (List.length o.Soak.violations)
    o.Soak.crashes o.Soak.rejoins o.Soak.lost_pages o.Soak.sim_ms

let test_outcomes_independent_of_jobs () =
  let cells =
    [
      (Config.Mm_asvm, "fault", 1);
      (Config.Mm_asvm, "file", 2);
      (Config.Mm_asvm, "em3d", 2);
      (Config.Mm_xmm, "chain", 1);
    ]
  in
  let digest cell = outcome_digest (crash_cell cell) in
  let sequential = Runner.map ~jobs:1 digest cells in
  let parallel = Runner.map ~jobs:4 digest cells in
  Alcotest.(check (list string))
    "identical crash-cell outcomes at any job count" sequential parallel

(* --------------- direct crash scenario on a cluster ----------------

   A 5-node ASVM cluster; node 3 writes two pages of a shared object
   (becoming their owner), nodes 1 and 2 read one of them (acquiring
   dynamic hints that point at node 3), then node 3 crashes and never
   rejoins.  The survivors' subsequent writes must converge through
   re-election even though every hint they hold is poisoned. *)

let make_crashed_owner_scenario () =
  let cfg = Config.default ~nodes:5 in
  let cfg = { cfg with Config.trace_capacity = Some 65536 } in
  let cl = Cluster.create cfg in
  let wpp = (Cluster.config cl).Config.vm.Vm_config.words_per_page in
  let obj =
    Cluster.create_shared_object cl ~size_pages:2 ~sharers:[ 1; 2; 3 ] ()
  in
  let task n =
    let t = Cluster.create_task cl ~node:n in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:2
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t1, t2, t3 = (task 1, task 2, task 3) in
  let sync k =
    let ok = ref false in
    k (fun () -> ok := true);
    Cluster.run cl;
    if not !ok then Alcotest.fail "operation did not complete"
  in
  (* node 3 becomes owner of both pages *)
  sync (fun k ->
      Cluster.write_word cl ~task:t3 ~addr:0 ~value:31 (fun () -> k ()));
  sync (fun k ->
      Cluster.write_word cl ~task:t3 ~addr:wpp ~value:32 (fun () -> k ()));
  (* nodes 1 and 2 read page 0: their hint chains now point at node 3 *)
  sync (fun k -> Cluster.touch cl ~task:t1 ~vpage:0 ~want:Prot.Read_only k);
  sync (fun k -> Cluster.touch cl ~task:t2 ~vpage:0 ~want:Prot.Read_only k);
  Alcotest.(check bool) "victim is crashable" true
    (Cluster.crashable cl ~node:3);
  let crash_time = Cluster.now cl in
  Cluster.crash_node cl ~node:3;
  (cl, t1, t2, wpp, crash_time, sync)

let test_poisoned_hints_converge () =
  let cl, t1, t2, wpp, _crash_time, sync = make_crashed_owner_scenario () in
  (* both survivors write through their stale hints; page 1's only copy
     died with node 3, so its re-read must come back zero-filled via the
     pager rather than hang *)
  sync (fun k ->
      Cluster.write_word cl ~task:t1 ~addr:1 ~value:100 (fun () -> k ()));
  sync (fun k ->
      Cluster.read_word cl ~task:t2 ~addr:1 (fun v ->
          Alcotest.(check int) "survivor reads the survivor's write" 100 v;
          k ()));
  sync (fun k ->
      Cluster.read_word cl ~task:t2 ~addr:wpp (fun v ->
          Alcotest.(check int) "sole-copy page lost with the node" 0 v;
          k ()));
  Alcotest.(check (list string)) "invariants hold after recovery" []
    (Invariants.check cl)

let test_down_node_silence () =
  let cl, t1, t2, _wpp, crash_time, sync = make_crashed_owner_scenario () in
  sync (fun k ->
      Cluster.write_word cl ~task:t1 ~addr:1 ~value:100 (fun () -> k ()));
  sync (fun k -> Cluster.touch cl ~task:t2 ~vpage:0 ~want:Prot.Read_only k);
  let trace =
    match Cluster.trace cl with
    | Some tr -> tr
    | None -> Alcotest.fail "trace not enabled"
  in
  let post_crash_victim_events =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.node = 3
        && e.Trace.time >= crash_time
        &&
        match e.Trace.kind with
        | Trace.Note { category = "crash"; _ } -> false (* administrative *)
        | _ -> true)
      (Trace.events trace)
  in
  Alcotest.(check int) "a crashed node generates no events" 0
    (List.length post_crash_victim_events);
  Alcotest.(check int) "no pages remain resident on the victim" 0
    (Vm.resident_total (Cluster.node_vm cl 3))

let test_rejoin_reuses_task () =
  let cl, t1, _t2, _wpp, _crash_time, sync = make_crashed_owner_scenario () in
  sync (fun k ->
      Cluster.write_word cl ~task:t1 ~addr:1 ~value:100 (fun () -> k ()));
  Cluster.rejoin_node cl ~node:3;
  Alcotest.(check bool) "node is back up" false (Cluster.node_down cl ~node:3);
  (* a fresh task on the rejoined node re-faults from empty caches and
     sees the survivor's write *)
  let t3 = Cluster.create_task cl ~node:3 in
  Cluster.map cl ~task:t3
    ~obj:(fst (List.hd (Cluster.registered_objects cl)))
    ~start:0 ~npages:2 ~inherit_:Address_map.Inherit_share;
  sync (fun k ->
      Cluster.read_word cl ~task:t3 ~addr:1 (fun v ->
          Alcotest.(check int) "rejoined node reads current contents" 100 v;
          k ()));
  Alcotest.(check (list string)) "invariants hold after rejoin" []
    (Invariants.check cl)

(* A pager supply dead-letters at a reader that crashed while the
   disk read was in flight.  6 nodes, a file object with data on
   sharers 1-5, page 3 (static manager: node 4).  Node 3 reads page 3
   and crashes [crash_after] ms later; node 1 writes the page at [w1]
   and is supplied by the pager meanwhile; node 2 writes it at [w2].
   Salvaging the dead supply must not erase node 1's newer grant from
   the pager's table, or node 2's lookup is supplied a second owner. *)
let salvage_after_regrant ~crash_after ~w1 ~w2 =
  let cl = Cluster.create (Config.default ~nodes:6) in
  let wpp = (Cluster.config cl).Config.vm.Vm_config.words_per_page in
  let obj =
    Cluster.create_file_object cl ~size_pages:8 ~sharers:[ 1; 2; 3; 4; 5 ]
      ~data:(fun w -> w) ()
  in
  let task n =
    let t = Cluster.create_task cl ~node:n in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:8
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t1, t2, t3, t4 = (task 1, task 2, task 3, task 4) in
  let eng = Cluster.engine cl in
  let writes = ref 0 in
  Cluster.touch cl ~task:t3 ~vpage:3 ~want:Prot.Read_only ignore;
  Engine.schedule eng ~delay:crash_after (fun () ->
      Cluster.crash_node cl ~node:3);
  Engine.schedule eng ~delay:w1 (fun () ->
      Cluster.write_word cl ~task:t1 ~addr:(3 * wpp) ~value:101 (fun () ->
          incr writes));
  Engine.schedule eng ~delay:w2 (fun () ->
      Cluster.write_word cl ~task:t2 ~addr:((3 * wpp) + 1) ~value:202
        (fun () -> incr writes));
  Cluster.run cl;
  let tag =
    Printf.sprintf "crash +%.1f, writes at %.1f/%.1f ms" crash_after w1 w2
  in
  Alcotest.(check int) (tag ^ ": both writes complete") 2 !writes;
  Alcotest.(check (list string)) (tag ^ ": invariants hold") []
    (Invariants.check cl);
  let seen = ref [] in
  List.iter
    (fun addr ->
      Cluster.read_word cl ~task:t4 ~addr (fun v -> seen := v :: !seen);
      Cluster.run cl)
    [ 3 * wpp; (3 * wpp) + 1 ];
  Alcotest.(check (list int)) (tag ^ ": both writes visible") [ 202; 101 ] !seen

let test_salvage_keeps_newer_grant () =
  salvage_after_regrant ~crash_after:0.8 ~w1:1.0 ~w2:3.0;
  List.iter
    (fun crash_after ->
      List.iter
        (fun w2 -> salvage_after_regrant ~crash_after ~w1:0.9 ~w2)
        [ 2.0; 3.0; 5.0 ])
    [ 0.2; 0.4; 0.6; 0.8; 1.0 ]

(* A write grant outlives its requester's crash.  5 nodes, page 0 of a
   shared object on sharers 1-4 (static manager: node 1).  Node 1
   writes 41 into word 0 and node 2 reads it; node 3, whose first fault
   was on another page, writes word 1.  Owner 1 must invalidate node 2
   first, and an STS interposer holds node 2's acknowledgement for 5 ms,
   during which node 3 crashes and rejoins.  The grant is then due to a
   fault that died with node 3's first incarnation: owner 1 keeps the
   page, and the rejoined node's re-driven write is served from it.
   Granted anyway, the page went to the new incarnation, which
   discarded the answer as superseded, and the page was lost: node 2
   then read a zero-filled page. *)
let test_grant_outlives_requester () =
  let armed = ref false and held = ref false in
  let cl = ref None in
  let interposer ~now:_ ~index:_ ~src ~dst ~carries_page =
    if !armed && (not carries_page) && src = 2 && dst = 1 && not !held then begin
      held := true;
      let cl = Option.get !cl in
      let eng = Cluster.engine cl in
      Engine.schedule eng ~delay:1. (fun () -> Cluster.crash_node cl ~node:3);
      Engine.schedule eng ~delay:1.5 (fun () -> Cluster.rejoin_node cl ~node:3);
      { Asvm_sts.Sts.deliveries = [ 5. ] }
    end
    else Asvm_sts.Sts.pass
  in
  let cfg = Config.default ~nodes:5 in
  let asvm = cfg.Config.asvm in
  let c =
    Cluster.create
      {
        cfg with
        Config.asvm =
          {
            asvm with
            Asvm_core.Asvm.sts =
              {
                asvm.Asvm_core.Asvm.sts with
                Asvm_sts.Sts.interposer = Some interposer;
              };
          };
      }
  in
  cl := Some c;
  let cl = c in
  let wpp = (Cluster.config cl).Config.vm.Vm_config.words_per_page in
  let obj =
    Cluster.create_shared_object cl ~size_pages:4 ~sharers:[ 1; 2; 3; 4 ] ()
  in
  let task n =
    let t = Cluster.create_task cl ~node:n in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:4
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t1, t2, t3 = (task 1, task 2, task 3) in
  let sync what k =
    let ok = ref false in
    k (fun () -> ok := true);
    Cluster.run cl;
    if not !ok then Alcotest.failf "%s did not complete" what
  in
  sync "node 1's write" (fun k ->
      Cluster.write_word cl ~task:t1 ~addr:0 ~value:41 k);
  sync "node 2's read" (fun k ->
      Cluster.read_word cl ~task:t2 ~addr:0 (fun _ -> k ()));
  sync "node 3's first fault" (fun k ->
      Cluster.read_word cl ~task:t3 ~addr:(2 * wpp) (fun _ -> k ()));
  armed := true;
  sync "node 3's write" (fun k ->
      Cluster.write_word cl ~task:t3 ~addr:1 ~value:77 k);
  Alcotest.(check bool) "the acknowledgement was held" true !held;
  let read addr =
    let v = ref None in
    sync "node 2's read" (fun k ->
        Cluster.read_word cl ~task:t2 ~addr (fun x ->
            v := Some x;
            k ()));
    !v
  in
  Alcotest.(check (option int)) "node 1's write survives" (Some 41) (read 0);
  Alcotest.(check (option int)) "node 3's write is seen" (Some 77) (read 1);
  Alcotest.(check (list string)) "invariants hold" [] (Invariants.check cl)

(* A reader crashes while it owes invalidation acks.  5 nodes, four
   pages of a shared object on sharers 1-4; node 1 writes them all
   (becoming their owner), nodes 2 and 3 read them all.  The kernel call
   an ack waits on takes 2 x 5 ms here, a wide window.  An STS
   interposer holds node 2's acks until [release], 100 ms after it is
   armed; node 1 then writes page 0, and node 3 acks it, then pages
   1-3, and node 3 crashes while its three acks wait on the kernel.
   Recovery must synthesize those three at node 1, and only those: each
   write needs one ack from node 3 and one from node 2, so a missing
   answer strands a write and a repeated one (or a repeat of page 0's,
   sent before the crash) completes it before [release]. *)
let test_owed_acks_at_crash () =
  let victim = 3 and release = ref infinity in
  let armed = ref false and victim_acks = ref 0 and held = ref 0 in
  let invals = ref 0 and crash_at = ref infinity in
  let cl = ref None in
  let interposer ~now ~index:_ ~src ~dst ~carries_page =
    if !armed && not carries_page then begin
      if src = 2 && dst = 1 then begin
        incr held;
        { Asvm_sts.Sts.deliveries = [ !release -. now ] }
      end
      else begin
        if src = victim && dst = 1 then incr victim_acks;
        if src = 1 && dst = victim && !victim_acks = 1 then begin
          (* the invalidations for pages 1-3: crash once the last is
             sent, inside the ack window of all three *)
          incr invals;
          if !invals = 3 then begin
            crash_at := now +. 2.;
            let cl = Option.get !cl in
            Engine.schedule (Cluster.engine cl) ~delay:2. (fun () ->
                Cluster.crash_node cl ~node:victim)
          end
        end;
        Asvm_sts.Sts.pass
      end
    end
    else Asvm_sts.Sts.pass
  in
  let cfg = Config.default ~nodes:5 in
  let asvm = cfg.Config.asvm in
  let c =
    Cluster.create
      {
        cfg with
        Config.vm = { cfg.Config.vm with Vm_config.emmi_call_ms = 5. };
        asvm =
          {
            asvm with
            Asvm_core.Asvm.sts =
              {
                asvm.Asvm_core.Asvm.sts with
                Asvm_sts.Sts.interposer = Some interposer;
              };
          };
      }
  in
  cl := Some c;
  let cl = c in
  let wpp = (Cluster.config cl).Config.vm.Vm_config.words_per_page in
  let obj =
    Cluster.create_shared_object cl ~size_pages:4 ~sharers:[ 1; 2; 3; 4 ] ()
  in
  let task n =
    let t = Cluster.create_task cl ~node:n in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:4
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t1, t2, t3 = (task 1, task 2, task 3) in
  let sync what k =
    let ok = ref false in
    k (fun () -> ok := true);
    Cluster.run cl;
    if not !ok then Alcotest.failf "%s did not complete" what
  in
  for page = 0 to 3 do
    sync "node 1's write" (fun k ->
        Cluster.write_word cl ~task:t1 ~addr:(page * wpp) ~value:(10 + page) k)
  done;
  List.iter
    (fun t ->
      for page = 0 to 3 do
        sync "a read" (fun k ->
            Cluster.read_word cl ~task:t ~addr:(page * wpp) (fun _ -> k ()))
      done)
    [ t2; t3 ];
  armed := true;
  release := Cluster.now cl +. 100.;
  let done_at = Array.make 4 infinity in
  let write page =
    Cluster.write_word cl ~task:t1 ~addr:((page * wpp) + 1) ~value:(20 + page)
      (fun () -> done_at.(page) <- Cluster.now cl)
  in
  write 0;
  Cluster.run cl ~until:(Cluster.now cl +. 40.);
  Alcotest.(check int) "node 3 acked page 0 before the crash" 1 !victim_acks;
  for page = 1 to 3 do
    write page
  done;
  Cluster.run cl;
  Alcotest.(check bool) "node 3 crashed before node 2's acks" true
    (!crash_at < !release);
  Alcotest.(check int) "node 2 acked all four pages" 4 !held;
  Alcotest.(check int) "node 3 sent no other ack" 1 !victim_acks;
  let snap = Cluster.metrics_snapshot cl in
  Alcotest.(check int) "no invalidation was in flight at the crash" 0
    (Asvm_obs.Metrics.counter_total
       ~where:(fun ls -> List.assoc_opt "event" ls = Some "salvaged")
       snap "asvm.crash");
  Array.iteri
    (fun page at ->
      Alcotest.(check bool)
        (Printf.sprintf "page %d's write waited for both acks" page)
        true
        (at >= !release && at < infinity))
    done_at;
  Alcotest.(check (list string)) "invariants hold" [] (Invariants.check cl)

(* A 16-node serving window (Poisson 4,000 req/s for 800 ms, uniform
   keys, seed 42) in which node 1 crashes [crash_at] ms in and rejoins
   [down_ms] later.  All 3,211 requests must complete and the checker
   must find nothing; the run fails if a request is still outstanding
   10 s into the window. *)
let serve_through_crash ~crash_at ~down_ms =
  let findings = ref [] in
  let on_start cl =
    let eng = Cluster.engine cl in
    Engine.schedule eng ~delay:crash_at (fun () ->
        Cluster.crash_node cl ~node:1);
    Engine.schedule eng ~delay:(crash_at +. down_ms) (fun () ->
        Cluster.rejoin_node cl ~node:1);
    Engine.schedule eng ~delay:10_000. (fun () ->
        let snap = Cluster.metrics_snapshot cl in
        let issued = Asvm_obs.Metrics.counter_total snap "serve.requests" in
        let done_ = Asvm_obs.Metrics.counter_total snap "serve.completions" in
        if done_ < issued then
          Alcotest.failf "%d of %d requests still outstanding 10 s in"
            (issued - done_) issued)
  in
  let r =
    Asvm_serve.Serve.run ~mm:Config.Mm_asvm ~on_start
      ~inspect:(fun cl -> findings := Invariants.check cl)
      {
        Asvm_serve.Serve.default_params with
        nodes = 16;
        process = Asvm_serve.Arrival.Poisson { rate_per_s = 4000. };
        duration_ms = 800.;
        key_dist = Asvm_serve.Arrival.Uniform;
        seed = 42;
      }
  in
  Alcotest.(check int) "the cell's arrivals" 3211 r.requests;
  Alcotest.(check int) "every request completes" r.requests r.completions;
  Alcotest.(check (list string)) "invariants hold" [] !findings

(* A pageout offer whose evictor died in flight opens no pageout
   window.  Node 1 is down 0.5 ms at 100 ms.  An offer it sent before
   the crash reaches the pager as a dead letter from a dead sender;
   applied verbatim, it opened a window for node 1, the pager's grant
   went to the rejoined incarnation, which ignores it, and every lookup
   for the page waited in the window for good: 3,202 of the 3,211
   requests completed, and the checker found "node 0 holds 4 lookups
   for page 913 behind a pageout from node 1". *)
let test_dead_evictor_offer () =
  serve_through_crash ~crash_at:100. ~down_ms:0.5

(* A pageout offer that waits out its evictor's crash and rejoin opens
   no window either.  Node 1 is down 5 ms at 300 ms.  Its offer reached
   the pager before the crash and waited there for a receive credit;
   the credit came after the rejoin and opened a window for the new
   incarnation, which never made the offer and ignored the grant, so
   neither the window nor the credit closed: 3,202 of the 3,211
   requests completed, and the checker found "node 0 holds 3 lookups
   for page 1441 behind a pageout from node 1" and "sts: node 0 holds 5
   reserved page buffers after quiesce". *)
let test_rejoined_evictor_offer () =
  serve_through_crash ~crash_at:300. ~down_ms:5.

(* Crash recovery relies on a pager's node never crashing
   ([Asvm.crash_node]'s precondition): the cluster pins the default
   pager's node and every node of a striped file's pagers, and refuses
   to crash them.  With the I/O node at 4 of 6, a file striped three
   ways has its pagers on nodes 4, 5 and 0. *)
let test_pager_nodes_pinned () =
  let cl = Cluster.create { (Config.default ~nodes:6) with Config.io_node = 4 } in
  let obj =
    Cluster.create_file_object cl ~size_pages:12 ~sharers:[ 0; 1; 2; 3; 4; 5 ]
      ~stripes:3 ()
  in
  let pager_nodes =
    List.map Asvm_pager.Store_pager.node (Cluster.object_pagers cl obj)
  in
  Alcotest.(check (list int)) "the file's pagers" [ 4; 5; 0 ] pager_nodes;
  Alcotest.(check int) "the default pager's node" 4
    (Asvm_pager.Store_pager.node (Cluster.default_pager cl));
  List.iter
    (fun node ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d is not crashable" node)
        false
        (Cluster.crashable cl ~node);
      Alcotest.(check bool)
        (Printf.sprintf "crashing node %d is refused" node)
        true
        (match Cluster.crash_node cl ~node with
        | () -> false
        | exception Invalid_argument _ -> true))
    pager_nodes;
  List.iter
    (fun node ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d is crashable" node)
        true
        (Cluster.crashable cl ~node))
    [ 1; 2; 3 ]

(* ------------- crash-and-rejoin stress, lossless -------------------

   108 serving cells: {4, 16 nodes} x {Zipf 0.9, uniform keys} x victim
   {1, 2, 3} x crash at {100, 300, 700} ms into the window x down {0.5,
   5, 100} ms, each at 250 req/s per node for 800 ms, seed 42.  A cell
   passes when every request completes and the checker finds nothing.
   Forwarding has no hop budget, so a request still outstanding 20 s
   into the window ends the cell. *)

exception Outstanding of int

let stress_cell (nodes, key_dist, victim, crash_at, down_ms) =
  let findings = ref [] in
  let plan =
    {
      Plan.none with
      Plan.crashes =
        [ { Plan.c_victim = victim; c_at_ms = crash_at; c_down_ms = Some down_ms } ];
    }
  in
  let on_start cl =
    let engine = Cluster.engine cl in
    Plan.schedule_crashes plan ~engine
      ~crash:(fun node ->
        Cluster.crash_node cl ~node;
        true)
      ~rejoin:(fun node -> Cluster.rejoin_node cl ~node);
    Engine.schedule engine ~delay:20_000. (fun () ->
        let snap = Cluster.metrics_snapshot cl in
        let issued = Asvm_obs.Metrics.counter_total snap "serve.requests" in
        let done_ = Asvm_obs.Metrics.counter_total snap "serve.completions" in
        if done_ < issued then raise (Outstanding (issued - done_)))
  in
  let params =
    {
      Asvm_serve.Serve.default_params with
      nodes;
      process =
        Asvm_serve.Arrival.Poisson { rate_per_s = 250. *. float_of_int nodes };
      duration_ms = 800.;
      key_dist;
      seed = 42;
    }
  in
  match
    Asvm_serve.Serve.run ~mm:Config.Mm_asvm ~on_start
      ~inspect:(fun cl -> findings := Invariants.check cl)
      params
  with
  | exception Outstanding n -> [ Printf.sprintf "%d requests outstanding 20 s in" n ]
  | r when r.completions < r.requests ->
    Printf.sprintf "%d of %d requests complete" r.completions r.requests
    :: !findings
  | _ -> !findings

let test_lossless_crash_stress () =
  let cells =
    List.concat_map
      (fun nodes ->
        List.concat_map
          (fun key_dist ->
            List.concat_map
              (fun victim ->
                List.concat_map
                  (fun crash_at ->
                    List.map
                      (fun down_ms -> (nodes, key_dist, victim, crash_at, down_ms))
                      [ 0.5; 5.; 100. ])
                  [ 100.; 300.; 700. ])
              [ 1; 2; 3 ])
          [ Asvm_serve.Arrival.Zipf 0.9; Asvm_serve.Arrival.Uniform ])
      [ 4; 16 ]
  in
  Alcotest.(check int) "cells" 108 (List.length cells);
  let failed =
    List.concat
      (List.map2
         (fun (nodes, key_dist, victim, crash_at, down_ms) findings ->
           match findings with
           | [] -> []
           | first :: _ ->
             [
               Printf.sprintf "%d nodes, %s keys, node %d down %g ms at %g ms: %s"
                 nodes
                 (match key_dist with
                 | Asvm_serve.Arrival.Uniform -> "uniform"
                 | Asvm_serve.Arrival.Zipf _ -> "Zipf")
                 victim down_ms crash_at first;
             ])
         cells
         (Runner.map stress_cell cells))
  in
  Alcotest.(check (list string)) "every cell completes clean" [] failed

let () =
  Alcotest.run "crash"
    [
      ( "plan",
        [ Alcotest.test_case "rolling schedule shape" `Quick test_rolling_shape ] );
      ( "cells",
        [
          Alcotest.test_case "every workload survives k=1" `Slow
            test_crash_cells_each_workload;
          Alcotest.test_case "both protocols survive k=2" `Slow
            test_k2_rolling_both_protocols;
          Alcotest.test_case "outcomes independent of --jobs" `Slow
            test_outcomes_independent_of_jobs;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "poisoned hints converge" `Quick
            test_poisoned_hints_converge;
          Alcotest.test_case "crashed node stays silent" `Quick
            test_down_node_silence;
          Alcotest.test_case "rejoin restores the node" `Quick
            test_rejoin_reuses_task;
          Alcotest.test_case "salvage keeps a newer pager grant" `Quick
            test_salvage_keeps_newer_grant;
          Alcotest.test_case "a write grant outlives its requester" `Quick
            test_grant_outlives_requester;
          Alcotest.test_case "owed acks are answered once at a crash" `Quick
            test_owed_acks_at_crash;
          Alcotest.test_case "a dead evictor's offer opens no window" `Quick
            test_dead_evictor_offer;
          Alcotest.test_case "a rejoined evictor's offer opens no window"
            `Quick test_rejoined_evictor_offer;
          Alcotest.test_case "pager nodes cannot crash" `Quick
            test_pager_nodes_pinned;
        ] );
      ( "stress",
        [
          Alcotest.test_case "lossless crash and rejoin, 108 cells" `Slow
            test_lossless_crash_stress;
        ] );
    ]
