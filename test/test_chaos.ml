(* Tests for lib/chaos: fault-plan determinism, workload survival under
   loss with reliable STS, a read grant reordered behind its own
   invalidation, forwarding that ends when an STS interposer stretches
   an eviction, and the invariant checker (including its self-test
   against a deliberately corrupted cluster). *)

module Cluster = Asvm_cluster.Cluster
module Config = Asvm_cluster.Config
module Prot = Asvm_machvm.Prot
module Vm = Asvm_machvm.Vm
module Contents = Asvm_machvm.Contents
module Address_map = Asvm_machvm.Address_map
module Sts = Asvm_sts.Sts
module Plan = Asvm_chaos.Plan
module Invariants = Asvm_chaos.Invariants
module Soak = Asvm_chaos.Soak
module Fault_micro = Asvm_workloads.Fault_micro
module Runner = Asvm_runner.Runner

(* ------------------- plan purity and determinism ------------------- *)

let test_decide_is_pure () =
  let plan = Plan.random ~seed:42 ~lossy:true in
  for index = 0 to 500 do
    let d () = Plan.decide plan ~now:3.5 ~index ~src:0 ~dst:2 in
    Alcotest.(check (list (float 1e-12)))
      "same arguments, same decision" (d ()) (d ())
  done

let test_plans_differ_by_seed () =
  let decisions seed =
    let plan = Plan.random ~seed ~lossy:true in
    List.init 2000 (fun index ->
        Plan.decide plan ~now:0. ~index ~src:1 ~dst:0)
  in
  Alcotest.(check bool)
    "different seeds perturb differently" false
    (decisions 1 = decisions 2)

(* Run one ASVM fault-microbenchmark cell under a recorded lossy plan
   and return every perturbed transmission (both interposition layers)
   as strings.  Pure: safe as a pool job. *)
let recorded_faults seed =
  let plan = Plan.random ~seed ~lossy:true in
  let events = ref [] in
  let record e = events := Plan.event_to_string e :: !events in
  ignore
    (Fault_micro.measure_instrumented ~nodes:8
       ~tweak:(Soak.apply_plan ~record ~reliable:true plan)
       ~mm:Config.Mm_asvm
       (Fault_micro.Write_fault { read_copies = 2 }));
  List.rev !events

let test_fault_sequence_independent_of_jobs () =
  let seeds = [ 1; 2; 3; 4 ] in
  let sequential = Runner.map ~jobs:1 recorded_faults seeds in
  let parallel = Runner.map ~jobs:4 recorded_faults seeds in
  List.iteri
    (fun i (seq, par) ->
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: identical fault events at any job count"
           (i + 1))
        seq par;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: the plan actually perturbed something" (i + 1))
        true (seq <> []))
    (List.combine sequential parallel)

(* -------------------- survival under 1% loss ----------------------- *)

let test_workloads_survive_loss () =
  List.iter
    (fun workload ->
      let plan = Plan.lossy ~p:0.01 ~seed:7 () in
      let o =
        Soak.run_one ~quick:true ~mm:Config.Mm_asvm ~workload ~plan
          ~reliable:true ()
      in
      Alcotest.(check bool)
        (workload ^ " completes under 1% loss") true o.Soak.completed;
      Alcotest.(check (list string))
        (workload ^ " keeps the invariants") [] o.Soak.violations;
      (* retransmissions happen but stay bounded: the reliability layer
         converges instead of melting down *)
      Alcotest.(check bool)
        (workload ^ " retransmits are bounded") true
        (o.Soak.retransmits < 1000))
    Soak.workloads

(* ------------------- invariant checker, ≥10 seeds ------------------ *)

let soak_cell (mm, seed) =
  let lossy = mm = Config.Mm_asvm in
  let plan = Plan.random ~seed ~lossy in
  Soak.run_one ~quick:true ~mm ~workload:"chain" ~plan ~reliable:lossy ()

let test_checker_over_seeded_plans () =
  let seeds = List.init 10 (fun i -> i + 1) in
  let cells =
    List.concat_map
      (fun seed -> [ (Config.Mm_asvm, seed); (Config.Mm_xmm, seed) ])
      seeds
  in
  let outcomes = Runner.map soak_cell cells in
  List.iter
    (fun (o : Soak.outcome) ->
      let tag =
        Printf.sprintf "%s %s" (Config.mm_name o.Soak.mm) o.Soak.plan.Plan.label
      in
      Alcotest.(check bool) (tag ^ " completed") true o.Soak.completed;
      Alcotest.(check (list string)) (tag ^ " invariants hold") []
        o.Soak.violations)
    outcomes

(* A cluster whose STS consults [interposer], on [nodes] nodes (with
   [memory] user pages and [buffers] receive buffers each, when given);
   the pager is on node 0.  [internode_paging = false] sends every
   eviction to the pager. *)
let interposed_cluster ?memory ?buffers ?(internode_paging = true)
    ?trace_capacity ~nodes interposer =
  let cfg = Config.default ~nodes in
  let cfg =
    match memory with Some m -> Config.with_memory_pages cfg m | None -> cfg
  in
  let asvm = cfg.Config.asvm in
  let sts = asvm.Asvm_core.Asvm.sts in
  Cluster.create
    {
      cfg with
      Config.trace_capacity;
      asvm =
        {
          asvm with
          Asvm_core.Asvm.internode_paging;
          sts =
            {
              sts with
              Sts.interposer = Some interposer;
              page_buffers = Option.value buffers ~default:sts.Sts.page_buffers;
            };
        };
    }

(* A read grant overtaken on the wire by the invalidation its owner
   sent right after it (a retransmission does this under a lossy
   plan).  3 nodes; node 1 owns page 0 with value 99; node 2 reads it.
   An STS interposer holds node 1's page-carrying reply to node 2 for
   10 ms and, as it does, has node 1 write 100, which invalidates
   node 2 while the reply is still on the wire.  The late grant must
   not install a copy node 1 no longer tracks: node 2 asks again and
   reads 100. *)
let test_overtaken_read_grant () =
  let held = ref false and write_now = ref ignore in
  let interposer ~now:_ ~index:_ ~src ~dst ~carries_page =
    if carries_page && src = 1 && dst = 2 && not !held then begin
      held := true;
      !write_now ();
      { Sts.deliveries = [ 10. ] }
    end
    else Sts.pass
  in
  let cl = interposed_cluster ~nodes:3 interposer in
  let obj =
    Cluster.create_shared_object cl ~size_pages:2 ~sharers:[ 0; 1; 2 ] ()
  in
  let task node =
    let t = Cluster.create_task cl ~node in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:2
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t1 = task 1 and t2 = task 2 in
  Cluster.write_word cl ~task:t1 ~addr:0 ~value:99 ignore;
  Cluster.run cl;
  let wrote = ref false and read = ref None in
  (write_now :=
     fun () ->
       Cluster.write_word cl ~task:t1 ~addr:0 ~value:100 (fun () ->
           wrote := true));
  Cluster.read_word cl ~task:t2 ~addr:0 (fun v -> read := Some v);
  Cluster.run cl;
  Alcotest.(check bool) "the reply was held" true !held;
  Alcotest.(check bool) "node 1's write completes" true !wrote;
  Alcotest.(check (option int)) "node 2 reads the new value" (Some 100) !read;
  Alcotest.(check (list string)) "invariants hold" [] (Invariants.check cl);
  let revoked =
    Asvm_obs.Metrics.counter_total (Cluster.metrics_snapshot cl)
      "asvm.revoked_reads"
  in
  Alcotest.(check int) "one read grant revoked" 1 revoked

(* ------------------ forwarding ends by design ---------------------- *)

let global_sweeps cl =
  Asvm_obs.Metrics.counter_total
    ~where:(fun ls -> List.assoc_opt "mechanism" ls = Some "global_sweep")
    (Cluster.metrics_snapshot cl) "asvm.forwarding"

(* Run the cluster for at most a simulated second: these scenarios end
   in milliseconds, and a request circling without end fails the test
   instead of running forever. *)
let run_bounded cl = Cluster.run ~until:(Cluster.now cl +. 1000.) cl

(* Run [k] to completion: it must call its continuation. *)
let sync cl what k =
  let ok = ref false in
  k (fun () -> ok := true);
  run_bounded cl;
  if not !ok then Alcotest.failf "%s did not complete" what

(* Node 2 owned page 2 and wrote it over to node 1, so node 2's dynamic
   hint names node 1.  Node 1 evicts the page and offers it to node 2,
   which accepts; an STS interposer holds the page on the wire for
   5 ms, during which node 2 fills its last free frame, so the page
   arrives at a node with no room and goes on to the pager.  Node 1's
   hint names node 2.  Receiving ownership, even when refusing the
   page, must forget node 2's hint: node 1's next fault on the page then
   reaches the pager through the static manager (node 3).  With the
   hint kept, the two nodes sent the fault back and forth until a hop
   budget turned it into a global sweep. *)
let test_refused_transfer_forgets_hint () =
  let armed = ref false and fill = ref ignore in
  let interposer ~now:_ ~index:_ ~src ~dst ~carries_page =
    if !armed && carries_page && src = 1 && dst = 2 then begin
      armed := false;
      !fill ();
      { Sts.deliveries = [ 5. ] }
    end
    else Sts.pass
  in
  let cl = interposed_cluster ~memory:4 ~nodes:4 interposer in
  let obj =
    Cluster.create_shared_object cl ~size_pages:4 ~sharers:[ 1; 2; 3 ] ()
  in
  let task node =
    let t = Cluster.create_task cl ~node in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:4
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t1 = task 1 and t2 = task 2 in
  let wpp = Asvm_machvm.Vm_config.default.words_per_page in
  let addr = 2 * wpp in
  sync cl "node 2's write" (fun k ->
      Cluster.write_word cl ~task:t2 ~addr ~value:7 k);
  sync cl "node 1's write" (fun k ->
      Cluster.write_word cl ~task:t1 ~addr ~value:8 k);
  (* three of node 2's four frames hold private pages *)
  let priv = Cluster.create_private_object cl ~node:2 ~size_pages:4 in
  Cluster.map cl ~task:t2 ~obj:priv ~start:8 ~npages:4
    ~inherit_:Address_map.Inherit_none;
  for p = 0 to 2 do
    sync cl "a private write" (fun k ->
        Cluster.write_word cl ~task:t2 ~addr:((8 + p) * wpp) ~value:p k)
  done;
  let filled = ref false in
  (fill :=
     fun () ->
       Cluster.write_word cl ~task:t2 ~addr:(11 * wpp) ~value:3 (fun () ->
           filled := true));
  armed := true;
  Alcotest.(check bool) "node 1 evicts the page" true
    (Vm.evict_one (Cluster.node_vm cl 1));
  run_bounded cl;
  Alcotest.(check bool) "the page was held on the wire" false !armed;
  Alcotest.(check bool) "node 2 filled its last frame" true !filled;
  Alcotest.(check bool) "node 2 refused the page" false
    (Vm.is_resident (Cluster.node_vm cl 2) ~obj ~page:2);
  let read = ref None in
  sync cl "node 1's read" (fun k ->
      Cluster.read_word cl ~task:t1 ~addr (fun v ->
          read := Some v;
          k ()));
  Alcotest.(check (option int)) "node 1 reads its write" (Some 8) !read;
  Alcotest.(check int) "no global sweep" 0 (global_sweeps cl);
  Alcotest.(check (list string)) "invariants hold" [] (Invariants.check cl)

(* Node 1 owns page 3 read-only (node 2 read it, then dropped its copy)
   and has one receive buffer, held by its own read of page 1, whose
   reply an STS interposer holds for 10 ms.  Meanwhile node 1's kernel
   write-upgrades page 3, and the upgrade waits for the buffer; node 1
   evicts page 3 to the pager, whose grant the interposer holds for
   30 ms; the upgrade, once it has the buffer, queues behind that
   eviction at node 1, and so does node 3's read of page 3, sent on by
   the static manager (node 4).  When the pageout ends, both requests
   leave node 1.  The upgrade is a fault like any other: the manager
   claims the page for its generation, and node 3's request parks
   behind it at node 1.  With no generation, nothing could park behind
   the upgrade, and node 3's request went back and forth between the
   manager and node 1 until a hop budget turned it into a global
   sweep. *)
let test_upgrade_behind_pageout_is_designated () =
  let armed = ref false and reply_held = ref false and grant_held = ref false in
  let interposer ~now:_ ~index:_ ~src ~dst ~carries_page =
    if !armed && carries_page && src = 2 && dst = 1 && not !reply_held then begin
      reply_held := true;
      { Sts.deliveries = [ 10. ] }
    end
    else if !armed && (not carries_page) && src = 0 && dst = 1 && not !grant_held
    then begin
      grant_held := true;
      { Sts.deliveries = [ 30. ] }
    end
    else Sts.pass
  in
  let cl =
    interposed_cluster ~buffers:1 ~internode_paging:false
      ~trace_capacity:100_000 ~nodes:5 interposer
  in
  let obj =
    Cluster.create_shared_object cl ~size_pages:4 ~sharers:[ 1; 2; 3; 4 ] ()
  in
  let task node =
    let t = Cluster.create_task cl ~node in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:4
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t1 = task 1 and t2 = task 2 and t3 = task 3 in
  let wpp = Asvm_machvm.Vm_config.default.words_per_page in
  let p3 = 3 * wpp and p1 = wpp in
  sync cl "node 1's write" (fun k ->
      Cluster.write_word cl ~task:t1 ~addr:p3 ~value:5 k);
  sync cl "node 2's read" (fun k ->
      Cluster.read_word cl ~task:t2 ~addr:p3 (fun _ -> k ()));
  Alcotest.(check bool) "node 2 drops its copy" true
    (Vm.evict_one (Cluster.node_vm cl 2));
  sync cl "node 2's write of page 1" (fun k ->
      Cluster.write_word cl ~task:t2 ~addr:p1 ~value:1 k);
  armed := true;
  let read1 = ref false and wrote = ref false and read3 = ref None in
  let evicted = ref false in
  let engine = Cluster.engine cl in
  Cluster.read_word cl ~task:t1 ~addr:p1 (fun _ -> read1 := true);
  Cluster.write_word cl ~task:t1 ~addr:p3 ~value:6 (fun () -> wrote := true);
  (* after the kernel's write fault found page 3 resident (once fault
     entry is over) and before its upgrade request reaches the manager
     proxy (one EMMI call later) *)
  let vmc = Vm.config (Cluster.node_vm cl 1) in
  Asvm_simcore.Engine.schedule engine
    ~delay:
      (vmc.Asvm_machvm.Vm_config.fault_entry_ms
      +. (vmc.Asvm_machvm.Vm_config.emmi_call_ms /. 2.))
    (fun () -> evicted := Vm.evict_one (Cluster.node_vm cl 1));
  Asvm_simcore.Engine.schedule engine ~delay:15. (fun () ->
      Cluster.read_word cl ~task:t3 ~addr:p3 (fun v -> read3 := Some v));
  run_bounded cl;
  Alcotest.(check bool) "node 1 evicts page 3" true !evicted;
  Alcotest.(check bool) "the read reply was held" true !reply_held;
  Alcotest.(check bool) "the pager's grant was held" true !grant_held;
  Alcotest.(check bool) "node 1's read completes" true !read1;
  Alcotest.(check bool) "node 1's write completes" true !wrote;
  Alcotest.(check (option int)) "node 3 reads node 1's write" (Some 6) !read3;
  let parked_at_1 =
    match Cluster.trace cl with
    | None -> Alcotest.fail "no trace"
    | Some tr ->
      List.exists
        (fun (e : Asvm_obs.Trace.event) ->
          match e.kind with
          | Asvm_obs.Trace.Note { category = "asvm.park"; detail } ->
            e.node = 1 && detail = "obj=1 page=3 origin=3 gen=0"
          | _ -> false)
        (Asvm_obs.Trace.events tr)
  in
  Alcotest.(check int) "no global sweep" 0 (global_sweeps cl);
  Alcotest.(check bool) "node 3's request parks at node 1" true parked_at_1;
  Alcotest.(check (list string)) "invariants hold" [] (Invariants.check cl)

(* Node 2 got page 0 from the pager and pages it out clean; an STS
   interposer holds that pageout's message to the pager (node 0) for
   10 ms, so the pager's grant table still names node 2.  Meanwhile
   node 3 reads the page: the static manager (node 1), whose table says
   paged, claims the page for node 3's fault and sends it to the pager,
   which chases it to node 2; node 2 has no hint and returns it to the
   manager, which finds node 3's own claim and must send it back to the
   pager until the pageout lands.  Following its own claim instead, the
   manager sent the request to node 3 itself, and node 3 back to the
   manager, until a hop budget turned it into a global sweep. *)
let test_own_claim_goes_back_to_pager () =
  let armed = ref false and held = ref false in
  let interposer ~now:_ ~index:_ ~src ~dst ~carries_page =
    if !armed && (not carries_page) && src = 2 && dst = 0 && not !held then begin
      held := true;
      { Sts.deliveries = [ 10. ] }
    end
    else Sts.pass
  in
  let cl = interposed_cluster ~internode_paging:false ~nodes:4 interposer in
  let obj =
    Cluster.create_shared_object cl ~size_pages:3 ~sharers:[ 1; 2; 3 ] ()
  in
  let task node =
    let t = Cluster.create_task cl ~node in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:3
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t2 = task 2 and t3 = task 3 in
  let evict2 () =
    Alcotest.(check bool) "node 2 evicts page 0" true
      (Vm.evict_one (Cluster.node_vm cl 2));
    run_bounded cl
  in
  sync cl "node 2's write" (fun k ->
      Cluster.write_word cl ~task:t2 ~addr:0 ~value:12 k);
  evict2 ();
  sync cl "node 2's read from the pager" (fun k ->
      Cluster.read_word cl ~task:t2 ~addr:0 (fun _ -> k ()));
  armed := true;
  Alcotest.(check bool) "node 2 evicts page 0" true
    (Vm.evict_one (Cluster.node_vm cl 2));
  let read = ref None in
  Asvm_simcore.Engine.schedule (Cluster.engine cl) ~delay:1. (fun () ->
      Cluster.read_word cl ~task:t3 ~addr:0 (fun v -> read := Some v));
  run_bounded cl;
  Alcotest.(check bool) "the pageout was held" true !held;
  Alcotest.(check (option int)) "node 3 reads node 2's write" (Some 12) !read;
  Alcotest.(check int) "no global sweep" 0 (global_sweeps cl);
  Alcotest.(check (list string)) "invariants hold" [] (Invariants.check cl)

(* -------------------- checker self-test ---------------------------- *)

(* A healthy 3-node cluster where node 1 wrote a page and nodes 0 and 2
   read it, drained dry. *)
let make_shared_cluster () =
  let cl = Cluster.create (Config.default ~nodes:3) in
  let obj = Cluster.create_shared_object cl ~size_pages:2 ~sharers:[ 0; 1; 2 ] () in
  let tasks =
    Array.init 3 (fun node ->
        let t = Cluster.create_task cl ~node in
        Cluster.map cl ~task:t ~obj ~start:0 ~npages:2
          ~inherit_:Address_map.Inherit_share;
        t)
  in
  let sync k =
    let ok = ref false in
    k (fun () -> ok := true);
    Cluster.run cl;
    assert !ok
  in
  sync (fun k ->
      Cluster.write_word cl ~task:tasks.(1) ~addr:0 ~value:99 (fun () -> k ()));
  sync (fun k -> Cluster.touch cl ~task:tasks.(0) ~vpage:0 ~want:Prot.Read_only k);
  sync (fun k -> Cluster.touch cl ~task:tasks.(2) ~vpage:0 ~want:Prot.Read_only k);
  (cl, obj)

let test_checker_accepts_healthy_cluster () =
  let cl, _obj = make_shared_cluster () in
  Alcotest.(check (list string)) "no violations" [] (Invariants.check cl)

let test_checker_flags_forked_page () =
  let cl, obj = make_shared_cluster () in
  (* deliberately corrupt one read copy behind the protocol's back —
     Vm.frame_contents returns a defensive copy, so reach through the
     object table to the live frame *)
  let vm2 = Cluster.node_vm cl 2 in
  (match Asvm_machvm.Vm_object.frame (Vm.get_object vm2 obj) 0 with
  | Some fr -> Contents.set fr.Asvm_machvm.Vm_object.contents 0 123456
  | None -> Alcotest.fail "reader should hold the page");
  let violations = Invariants.check cl in
  Alcotest.(check bool) "fork detected" true
    (List.exists
       (fun v ->
         let rec contains i =
           i + 6 <= String.length v
           && (String.sub v i 6 = "forked" || contains (i + 1))
         in
         contains 0)
       violations)

(* Node 2 owns page 2 and node 1 reads it; node 2 evicts the page and
   node 1 accepts ownership as its reader.  An STS interposer holds
   node 1's update to the page's static manager (node 3) for 30 ms.
   Meanwhile node 3 writes the page (node 1 grants it and tells node 3,
   overtaking the held update), then node 2 writes it (node 3 grants it
   and records node 2).  The held update, naming node 1, arrives last:
   the table must keep node 2.  When it took the late update, node 1's
   next read went to node 3 by node 1's hint, the table sent it back
   to node 1, and so on without end. *)
let test_late_update_loses () =
  let armed = ref false and held = ref false and writes = ref ignore in
  let interposer ~now:_ ~index:_ ~src ~dst ~carries_page =
    if !armed && (not carries_page) && src = 1 && dst = 3 && not !held then begin
      held := true;
      !writes ();
      { Sts.deliveries = [ 30. ] }
    end
    else Sts.pass
  in
  let cl = interposed_cluster ~nodes:4 interposer in
  let obj =
    Cluster.create_shared_object cl ~size_pages:3 ~sharers:[ 1; 2; 3 ] ()
  in
  let task node =
    let t = Cluster.create_task cl ~node in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:3
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t1 = task 1 and t2 = task 2 and t3 = task 3 in
  let addr = 2 * Asvm_machvm.Vm_config.default.words_per_page in
  sync cl "node 2's write" (fun k ->
      Cluster.write_word cl ~task:t2 ~addr ~value:1 k);
  sync cl "node 1's read" (fun k ->
      Cluster.read_word cl ~task:t1 ~addr (fun _ -> k ()));
  let wrote = ref 0 in
  (writes :=
     fun () ->
       Cluster.write_word cl ~task:t3 ~addr ~value:2 (fun () ->
           incr wrote;
           Cluster.write_word cl ~task:t2 ~addr ~value:3 (fun () -> incr wrote)));
  armed := true;
  Alcotest.(check bool) "node 2 evicts the page" true
    (Vm.evict_one (Cluster.node_vm cl 2));
  run_bounded cl;
  Alcotest.(check bool) "node 1's update was held" true !held;
  Alcotest.(check int) "both writes complete" 2 !wrote;
  (match Cluster.backend cl with
  | `Asvm a ->
    Alcotest.(check bool) "node 2 owns the page" true
      (Asvm_core.Asvm.is_owner a ~node:2 ~obj ~page:2)
  | `Xmm _ -> Alcotest.fail "expected an ASVM cluster");
  let read = ref None in
  sync cl "node 1's second read" (fun k ->
      Cluster.read_word cl ~task:t1 ~addr (fun v ->
          read := Some v;
          k ()));
  Alcotest.(check (option int)) "node 1 reads node 2's write" (Some 3) !read;
  Alcotest.(check int) "no global sweep" 0 (global_sweeps cl);
  Alcotest.(check (list string)) "invariants hold" [] (Invariants.check cl)

let () =
  Alcotest.run "chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "decide is pure" `Quick test_decide_is_pure;
          Alcotest.test_case "seeds differ" `Quick test_plans_differ_by_seed;
          Alcotest.test_case "jobs-independent fault sequence" `Quick
            test_fault_sequence_independent_of_jobs;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "workloads survive 1% loss" `Slow
            test_workloads_survive_loss;
          Alcotest.test_case "read grant overtaken by its invalidation"
            `Quick test_overtaken_read_grant;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "a refused transfer forgets the hint" `Quick
            test_refused_transfer_forgets_hint;
          Alcotest.test_case "an upgrade behind a pageout is designated"
            `Quick test_upgrade_behind_pageout_is_designated;
          Alcotest.test_case "a request's own claim sends it to the pager"
            `Quick test_own_claim_goes_back_to_pager;
          Alcotest.test_case "a late owner update loses" `Quick
            test_late_update_loses;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "10 seeded plans per protocol" `Slow
            test_checker_over_seeded_plans;
          Alcotest.test_case "healthy cluster passes" `Quick
            test_checker_accepts_healthy_cluster;
          Alcotest.test_case "forked page flagged" `Quick
            test_checker_flags_forked_page;
        ] );
    ]
