(* Tests for lib/chaos: fault-plan determinism, workload survival under
   loss with reliable STS, a read grant reordered behind its own
   invalidation, and the invariant checker (including its self-test
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
  let cfg = Config.default ~nodes:3 in
  let asvm = cfg.Config.asvm in
  let cfg =
    {
      cfg with
      Config.asvm =
        {
          asvm with
          Asvm_core.Asvm.sts =
            { asvm.Asvm_core.Asvm.sts with Sts.interposer = Some interposer };
        };
    }
  in
  let cl = Cluster.create cfg in
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
