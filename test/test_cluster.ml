(* Integration tests: ASVM and XMM running on a simulated cluster.
   These exercise the full stack: kernel VM -> EMMI -> manager ->
   transport -> mesh. *)

module Engine = Asvm_simcore.Engine
module Cluster = Asvm_cluster.Cluster
module Config = Asvm_cluster.Config
module Prot = Asvm_machvm.Prot
module Address_map = Asvm_machvm.Address_map
module Asvm = Asvm_core.Asvm
module Metrics = Asvm_obs.Metrics

let wpp = Asvm_machvm.Vm_config.default.words_per_page

let make ?(nodes = 4) ?(mm = Config.Mm_asvm) ?(memory_pages = 100_000) () =
  let config = Config.with_memory_pages (Config.default ~nodes) memory_pages in
  Cluster.create (Config.with_mm config mm)

(* Synchronous wrappers: each op runs the engine to completion, so ops
   are sequentially consistent by construction and we can check values
   against a simple reference. *)
let wr cl task addr value =
  let ok = ref false in
  Cluster.write_word cl ~task ~addr ~value (fun () -> ok := true);
  Cluster.run cl;
  if not !ok then Alcotest.failf "write to %d did not complete" addr

let rd cl task addr =
  let result = ref None in
  Cluster.read_word cl ~task ~addr (fun v -> result := Some v);
  Cluster.run cl;
  match !result with
  | Some v -> v
  | None -> Alcotest.failf "read of %d did not complete" addr

let setup_shared cl ~nodes ~pages =
  let sharers = List.init nodes Fun.id in
  let obj = Cluster.create_shared_object cl ~size_pages:pages ~sharers () in
  let tasks =
    List.map
      (fun node ->
        let task = Cluster.create_task cl ~node in
        Cluster.map cl ~task ~obj ~start:0 ~npages:pages
          ~inherit_:Address_map.Inherit_share;
        task)
      sharers
  in
  (obj, Array.of_list tasks)

let coherence_scenario mm () =
  let cl = make ~mm () in
  let _obj, tasks = setup_shared cl ~nodes:4 ~pages:8 in
  (* fresh memory is zero everywhere *)
  Alcotest.(check int) "fresh zero on node 2" 0 (rd cl tasks.(2) 5);
  (* node 0 writes, everyone reads it *)
  wr cl tasks.(0) 5 111;
  Alcotest.(check int) "node 1 sees write" 111 (rd cl tasks.(1) 5);
  Alcotest.(check int) "node 2 sees write" 111 (rd cl tasks.(2) 5);
  Alcotest.(check int) "node 3 sees write" 111 (rd cl tasks.(3) 5);
  (* node 3 overwrites: read copies must be invalidated *)
  wr cl tasks.(3) 5 222;
  Alcotest.(check int) "node 0 sees overwrite" 222 (rd cl tasks.(0) 5);
  Alcotest.(check int) "node 1 sees overwrite" 222 (rd cl tasks.(1) 5);
  (* ping-pong writes *)
  wr cl tasks.(1) 5 333;
  wr cl tasks.(2) 5 444;
  Alcotest.(check int) "after ping-pong" 444 (rd cl tasks.(0) 5)

let upgrade_scenario mm () =
  let cl = make ~mm () in
  let _obj, tasks = setup_shared cl ~nodes:3 ~pages:4 in
  wr cl tasks.(0) 0 1;
  (* node 1 reads then upgrades to write on the same page *)
  Alcotest.(check int) "read before upgrade" 1 (rd cl tasks.(1) 0);
  wr cl tasks.(1) 1 2;
  Alcotest.(check int) "own write" 2 (rd cl tasks.(1) 1);
  Alcotest.(check int) "old word intact" 1 (rd cl tasks.(1) 0);
  Alcotest.(check int) "node 2 sees both" 2 (rd cl tasks.(2) 1);
  Alcotest.(check int) "node 2 sees both (2)" 1 (rd cl tasks.(2) 0)

let test_asvm_single_owner () =
  let cl = make ~mm:Config.Mm_asvm () in
  let obj, tasks = setup_shared cl ~nodes:4 ~pages:4 in
  wr cl tasks.(0) 0 1;
  wr cl tasks.(1) 0 2;
  wr cl tasks.(2) 0 3;
  ignore (rd cl tasks.(3) 0);
  let a = match Cluster.backend cl with `Asvm a -> a | `Xmm _ -> assert false in
  let owners =
    List.filter (fun n -> Asvm.is_owner a ~node:n ~obj ~page:0) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "exactly one owner" 1 (List.length owners);
  Alcotest.(check (list int)) "owner is last writer" [ 2 ] owners

let test_asvm_reader_list () =
  let cl = make ~mm:Config.Mm_asvm () in
  let obj, tasks = setup_shared cl ~nodes:4 ~pages:2 in
  wr cl tasks.(0) 0 9;
  ignore (rd cl tasks.(1) 0);
  ignore (rd cl tasks.(2) 0);
  ignore (rd cl tasks.(3) 0);
  let a = match Cluster.backend cl with `Asvm a -> a | `Xmm _ -> assert false in
  (match Asvm.readers a ~obj ~page:0 with
  | Some readers ->
    Alcotest.(check (list int))
      "owner tracks all readers" [ 1; 2; 3 ]
      (List.sort compare readers)
  | None -> Alcotest.fail "no owner found");
  (* a write flushes the reader list *)
  wr cl tasks.(1) 0 10;
  match Asvm.readers a ~obj ~page:0 with
  | Some readers -> Alcotest.(check (list int)) "readers flushed" [] readers
  | None -> Alcotest.fail "no owner after write"

let test_asvm_owner_state_is_bounded () =
  (* design rule: state only for resident/owned pages *)
  let cl = make ~mm:Config.Mm_asvm () in
  let obj, tasks = setup_shared cl ~nodes:4 ~pages:64 in
  for p = 0 to 9 do
    wr cl tasks.(1) (p * wpp) p
  done;
  let a = match Cluster.backend cl with `Asvm a -> a | `Xmm _ -> assert false in
  Alcotest.(check int) "owner entries = pages written" 10
    (Asvm.owner_entries a ~node:1 ~obj);
  Alcotest.(check int) "non-owner holds no state" 0
    (Asvm.owner_entries a ~node:2 ~obj)

let test_xmm_state_matrix () =
  let cl = make ~mm:Config.Mm_xmm ~nodes:8 () in
  let obj, _tasks = setup_shared cl ~nodes:8 ~pages:100 in
  let x = match Cluster.backend cl with `Xmm x -> x | `Asvm _ -> assert false in
  (* 1 byte per page per node, the footprint the paper criticizes *)
  Alcotest.(check int) "dense state matrix" 800 (Asvm_xmm.Xmm.state_bytes x ~obj)

let fork_snapshot mm () =
  let cl = make ~mm () in
  let parent = Cluster.create_task cl ~node:0 in
  let obj = Cluster.create_private_object cl ~node:0 ~size_pages:8 in
  Cluster.map cl ~task:parent ~obj ~start:0 ~npages:8
    ~inherit_:Address_map.Inherit_copy;
  wr cl parent 0 77;
  wr cl parent wpp 88;
  let child = ref None in
  Cluster.fork cl ~task:parent ~dst_node:2 (fun c -> child := Some c);
  Cluster.run cl;
  let child = Option.get !child in
  Alcotest.(check int) "child on destination node" 2 child.Cluster.tk_node;
  (* child sees the snapshot *)
  Alcotest.(check int) "inherited word" 77 (rd cl child 0);
  Alcotest.(check int) "inherited word 2" 88 (rd cl child wpp);
  Alcotest.(check int) "uninitialized zero" 0 (rd cl child (2 * wpp));
  (* parent writes after fork are invisible to the child *)
  wr cl parent 0 99;
  Alcotest.(check int) "snapshot isolation" 77 (rd cl child 0);
  Alcotest.(check int) "parent sees own write" 99 (rd cl parent 0);
  (* child writes are invisible to the parent *)
  wr cl child wpp 111;
  Alcotest.(check int) "parent unaffected by child" 88 (rd cl parent wpp);
  Alcotest.(check int) "child sees own write" 111 (rd cl child wpp)

let fork_chain mm () =
  (* the figure 9 scenario: fork node0 -> node1 -> node2; fault on the
     last node pulls through the whole copy chain *)
  let cl = make ~mm () in
  let t0 = Cluster.create_task cl ~node:0 in
  let obj = Cluster.create_private_object cl ~node:0 ~size_pages:8 in
  Cluster.map cl ~task:t0 ~obj ~start:0 ~npages:8
    ~inherit_:Address_map.Inherit_copy;
  wr cl t0 0 10;
  let t1 = ref None in
  Cluster.fork cl ~task:t0 ~dst_node:1 (fun c -> t1 := Some c);
  Cluster.run cl;
  let t1 = Option.get !t1 in
  wr cl t1 wpp 20;
  let t2 = ref None in
  Cluster.fork cl ~task:t1 ~dst_node:2 (fun c -> t2 := Some c);
  Cluster.run cl;
  let t2 = Option.get !t2 in
  (* page 0 lives on node 0, reached across two copy-chain stages *)
  Alcotest.(check int) "pull across two nodes" 10 (rd cl t2 0);
  (* page 1 lives on node 1 (one stage) *)
  Alcotest.(check int) "pull across one node" 20 (rd cl t2 wpp);
  (* never-written page zero-fills at the end of the chain *)
  Alcotest.(check int) "zero fill through chain" 0 (rd cl t2 (3 * wpp));
  (* writes at each generation remain isolated *)
  wr cl t0 0 11;
  wr cl t1 0 12;
  Alcotest.(check int) "t2 keeps snapshot" 10 (rd cl t2 0);
  Alcotest.(check int) "t1 keeps its own" 12 (rd cl t1 0);
  Alcotest.(check int) "t0 current" 11 (rd cl t0 0)

let fork_chain_push_scan mm () =
  (* like fork_chain, but the middle generation writes pages the last
     generation has NOT yet materialized: the frozen value must reach
     the shared copy object through the push machinery (push scan +
     push-to-peer under ASVM) before the write is granted. *)
  let cl = make ~mm () in
  let t0 = Cluster.create_task cl ~node:0 in
  let obj = Cluster.create_private_object cl ~node:0 ~size_pages:8 in
  Cluster.map cl ~task:t0 ~obj ~start:0 ~npages:8
    ~inherit_:Address_map.Inherit_copy;
  wr cl t0 0 10;
  wr cl t0 wpp 11;
  let t1 = ref None in
  Cluster.fork cl ~task:t0 ~dst_node:1 (fun c -> t1 := Some c);
  Cluster.run cl;
  let t1 = Option.get !t1 in
  let t2 = ref None in
  Cluster.fork cl ~task:t1 ~dst_node:2 (fun c -> t2 := Some c);
  Cluster.run cl;
  let t2 = Option.get !t2 in
  (* t1 writes BEFORE t2 ever touches these pages *)
  wr cl t1 0 99;
  wr cl t1 wpp 98;
  Alcotest.(check int) "t2 sees pre-write snapshot" 10 (rd cl t2 0);
  Alcotest.(check int) "t2 sees pre-write snapshot (2)" 11 (rd cl t2 wpp);
  Alcotest.(check int) "t1 keeps its writes" 99 (rd cl t1 0);
  (* and the root writing is pushed to t1's and t2's chains as needed *)
  wr cl t0 (2 * wpp) 55;
  Alcotest.(check int) "t2 zero for unwritten" 0 (rd cl t2 (2 * wpp));
  Alcotest.(check int) "t1 zero for unwritten" 0 (rd cl t1 (2 * wpp));
  Alcotest.(check int) "t0 sees own" 55 (rd cl t0 (2 * wpp))

let test_xmm_copy_chain_deadlock () =
  (* paper section 3.1: an internode copy chain crossing the same node
     twice deadlocks XMM when the copy-pager thread pool is exhausted;
     the fault never completes and requests stall in the pool queue. *)
  let config =
    { (Config.default ~nodes:2) with mm = Config.Mm_xmm; fork_threads = 1 }
  in
  let cl = Cluster.create config in
  let t0 = Cluster.create_task cl ~node:0 in
  let obj = Cluster.create_private_object cl ~node:0 ~size_pages:2 in
  Cluster.map cl ~task:t0 ~obj ~start:0 ~npages:2
    ~inherit_:Address_map.Inherit_copy;
  wr cl t0 0 7;
  (* chain 0 -> 1 -> 0 -> 1 crosses each node twice *)
  let fork task dst =
    let r = ref None in
    Cluster.fork cl ~task ~dst_node:dst (fun c -> r := Some c);
    Cluster.run cl;
    Option.get !r
  in
  let t1 = fork t0 1 in
  let t2 = fork t1 0 in
  let t3 = fork t2 1 in
  let completed = ref false in
  Cluster.read_word cl ~task:t3 ~addr:0 (fun _ -> completed := true);
  Cluster.run cl;
  let x = match Cluster.backend cl with `Xmm x -> x | `Asvm _ -> assert false in
  Alcotest.(check bool) "fault never completes" false !completed;
  Alcotest.(check bool) "requests stalled in the thread pool" true
    (Asvm_xmm.Xmm.stalled_fork_requests x > 0)

let test_xmm_no_deadlock_with_threads () =
  (* the same chain completes when the pool is big enough *)
  let config =
    { (Config.default ~nodes:2) with mm = Config.Mm_xmm; fork_threads = 8 }
  in
  let cl = Cluster.create config in
  let t0 = Cluster.create_task cl ~node:0 in
  let obj = Cluster.create_private_object cl ~node:0 ~size_pages:2 in
  Cluster.map cl ~task:t0 ~obj ~start:0 ~npages:2
    ~inherit_:Address_map.Inherit_copy;
  wr cl t0 0 7;
  let fork task dst =
    let r = ref None in
    Cluster.fork cl ~task ~dst_node:dst (fun c -> r := Some c);
    Cluster.run cl;
    Option.get !r
  in
  let t3 = fork (fork (fork t0 1) 0) 1 in
  Alcotest.(check int) "chain resolves" 7 (rd cl t3 0)

let test_asvm_chain_never_deadlocks () =
  (* ASVM's asynchronous state transitions hold no thread across a
     remote operation: the same double-crossing chain always resolves *)
  let cl = make ~nodes:2 ~mm:Config.Mm_asvm () in
  let t0 = Cluster.create_task cl ~node:0 in
  let obj = Cluster.create_private_object cl ~node:0 ~size_pages:2 in
  Cluster.map cl ~task:t0 ~obj ~start:0 ~npages:2
    ~inherit_:Address_map.Inherit_copy;
  wr cl t0 0 7;
  let fork task dst =
    let r = ref None in
    Cluster.fork cl ~task ~dst_node:dst (fun c -> r := Some c);
    Cluster.run cl;
    Option.get !r
  in
  let t3 = fork (fork (fork t0 1) 0) 1 in
  Alcotest.(check int) "chain resolves" 7 (rd cl t3 0)

(* Concurrent (not sequentialized) random accesses: after the engine
   drains, the protocol invariants must hold and all nodes must agree. *)
let concurrent_invariants_property =
  QCheck.Test.make ~name:"ASVM: invariants hold under concurrent load"
    ~count:20
    QCheck.(small_list (triple (int_bound 3) (int_bound 7) (int_bound 99)))
    (fun ops ->
      let cl = make ~mm:Config.Mm_asvm () in
      let pages = 8 in
      let obj, tasks = setup_shared cl ~nodes:4 ~pages in
      (* issue everything concurrently *)
      List.iteri
        (fun idx (node, page, value) ->
          if value mod 3 = 0 then
            Cluster.touch cl ~task:tasks.(node) ~vpage:page ~want:Prot.Read_only
              ignore
          else
            Cluster.write_word cl ~task:tasks.(node) ~addr:(page * wpp)
              ~value:(idx + 1) ignore)
        ops;
      Cluster.run cl;
      let a =
        match Cluster.backend cl with `Asvm a -> a | `Xmm _ -> assert false
      in
      (match Asvm.check_invariants a with
      | [] -> ()
      | violations -> QCheck.Test.fail_report (String.concat "\n" violations));
      let nodes = [ 0; 1; 2; 3 ] in
      List.for_all
        (fun page ->
          let owners =
            List.filter (fun n -> Asvm.is_owner a ~node:n ~obj ~page) nodes
          in
          (* at most one owner, and the owner holds the page *)
          List.length owners <= 1
          && List.for_all
               (fun n ->
                 Asvm_machvm.Vm.is_resident (Cluster.node_vm cl n) ~obj ~page)
               owners
          &&
          (* all nodes converge on a single value *)
          let values =
            List.map (fun n -> rd cl tasks.(n) (page * wpp)) nodes
          in
          List.for_all (fun v -> v = List.hd values) values)
        (List.init pages Fun.id))

let test_concurrent_soak () =
  (* hundreds of concurrent operations from every node over a larger
     page set, then a full invariant audit and convergence check *)
  let cl = make ~nodes:8 () in
  let pages = 32 in
  let _obj, tasks = setup_shared cl ~nodes:8 ~pages in
  let rng = Asvm_simcore.Rng.create 20260705 in
  for i = 0 to 799 do
    let node = Asvm_simcore.Rng.int rng 8 in
    let page = Asvm_simcore.Rng.int rng pages in
    if Asvm_simcore.Rng.bool rng then
      Cluster.touch cl ~task:tasks.(node) ~vpage:page ~want:Prot.Read_only
        ignore
    else
      Cluster.write_word cl ~task:tasks.(node) ~addr:(page * wpp) ~value:i
        ignore
  done;
  Cluster.run cl;
  let a = match Cluster.backend cl with `Asvm a -> a | `Xmm _ -> assert false in
  (match Asvm.check_invariants a with
  | [] -> ()
  | v -> Alcotest.fail (String.concat "\n" v));
  (* convergence: every node reads the same value on every page *)
  for page = 0 to pages - 1 do
    let v0 = rd cl tasks.(0) (page * wpp) in
    for n = 1 to 7 do
      Alcotest.(check int)
        (Printf.sprintf "page %d node %d" page n)
        v0
        (rd cl tasks.(n) (page * wpp))
    done
  done

let test_asvm_internode_paging () =
  (* a node under memory pressure hands owned pages to other nodes
     instead of the disk (eviction steps 2-3) *)
  let nodes = 4 in
  let pages = 24 in
  let config =
    Config.with_memory_pages (Config.default ~nodes) 8 (* tiny nodes *)
  in
  let cl = Cluster.create config in
  let _obj, tasks = setup_shared cl ~nodes ~pages in
  (* node 1 writes more pages than fit in its memory *)
  for p = 0 to pages - 1 do
    wr cl tasks.(1) (p * wpp) (500 + p)
  done;
  (* every page is still retrievable with its value *)
  for p = 0 to pages - 1 do
    Alcotest.(check int)
      (Printf.sprintf "page %d value" p)
      (500 + p)
      (rd cl tasks.(2) (p * wpp))
  done;
  let snap = Cluster.metrics_snapshot cl in
  let pageouts step =
    Metrics.counter_total
      ~where:(fun ls -> List.assoc_opt "step" ls = Some step)
      snap "asvm.pageout"
  in
  Alcotest.(check bool) "internode transfers happened" true
    (pageouts "internode" > 0 || pageouts "reader_handoff" > 0)

let test_file_object mm () =
  let cl = make ~mm () in
  let sharers = [ 0; 1; 2; 3 ] in
  let obj =
    Cluster.create_file_object cl ~size_pages:8 ~sharers
      ~data:(fun addr -> 7000 + addr)
      ()
  in
  let tasks =
    List.map
      (fun node ->
        let task = Cluster.create_task cl ~node in
        Cluster.map cl ~task ~obj ~start:0 ~npages:8
          ~inherit_:Address_map.Inherit_share;
        task)
      sharers
    |> Array.of_list
  in
  Alcotest.(check int) "file contents" 7000 (rd cl tasks.(1) 0);
  Alcotest.(check int) "file contents 2" (7000 + 17) (rd cl tasks.(2) 17);
  (* a write is seen by other nodes *)
  wr cl tasks.(3) 17 42;
  Alcotest.(check int) "write-through to sharer" 42 (rd cl tasks.(0) 17)

let test_forwarding_modes () =
  (* disabling dynamic (or both) forwarding must not change results,
     only the message pattern (paper 3.4) *)
  let run_with fwd =
    let config = Config.default ~nodes:4 in
    let cl = Cluster.create config in
    let sharers = [ 0; 1; 2; 3 ] in
    let obj =
      Cluster.create_shared_object cl ~size_pages:8 ~sharers ~forwarding:fwd ()
    in
    let tasks =
      List.map
        (fun node ->
          let task = Cluster.create_task cl ~node in
          Cluster.map cl ~task ~obj ~start:0 ~npages:8
            ~inherit_:Address_map.Inherit_share;
          task)
        sharers
      |> Array.of_list
    in
    wr cl tasks.(0) 0 5;
    wr cl tasks.(1) 0 6;
    let v1 = rd cl tasks.(2) 0 in
    wr cl tasks.(3) 0 7;
    let v2 = rd cl tasks.(0) 0 in
    (v1, v2)
  in
  let expected = (6, 7) in
  Alcotest.(check (pair int int))
    "dynamic+static" expected
    (run_with { Asvm.dynamic = true; static = true });
  Alcotest.(check (pair int int))
    "static only" expected
    (run_with { Asvm.dynamic = false; static = true });
  Alcotest.(check (pair int int))
    "global only" expected
    (run_with { Asvm.dynamic = false; static = false });
  Alcotest.(check (pair int int))
    "dynamic only" expected
    (run_with { Asvm.dynamic = true; static = false })

let test_forwarding_counters () =
  (* the redirector's layering is observable in its statistics *)
  let run fwd =
    let cl = Cluster.create (Config.default ~nodes:4) in
    let sharers = [ 0; 1; 2; 3 ] in
    let obj =
      Cluster.create_shared_object cl ~size_pages:4 ~sharers ~forwarding:fwd ()
    in
    let tasks =
      Array.of_list
        (List.map
           (fun node ->
             let t = Cluster.create_task cl ~node in
             Cluster.map cl ~task:t ~obj ~start:0 ~npages:4
               ~inherit_:Address_map.Inherit_share;
             t)
           sharers)
    in
    (* migrate ownership around, then fault from a node with a hint *)
    wr cl tasks.(0) 0 1;
    ignore (rd cl tasks.(1) 0);
    wr cl tasks.(2) 0 2;
    (* node 1 was invalidated: its dynamic hint points at node 2 *)
    ignore (rd cl tasks.(1) 0);
    let snap = Cluster.metrics_snapshot cl in
    fun mechanism ->
      Metrics.counter_total
        ~where:(fun ls -> List.assoc_opt "mechanism" ls = Some mechanism)
        snap "asvm.forwarding"
  in
  let forwarding = run { Asvm.dynamic = true; static = true } in
  Alcotest.(check bool) "dynamic hints used" true (forwarding "dynamic" > 0);
  Alcotest.(check int) "no sweeps needed" 0 (forwarding "global_sweep");
  let forwarding = run { Asvm.dynamic = false; static = false } in
  Alcotest.(check int) "no dynamic when disabled" 0 (forwarding "dynamic");
  Alcotest.(check bool) "global sweeps as fallback" true
    (forwarding "global_sweep" > 0)

(* Property: a random sequential schedule of reads/writes from random
   nodes sees exactly the values of a trivial reference memory, under
   both managers. *)
let coherence_property mm =
  let name =
    Printf.sprintf "%s: random schedule matches reference memory"
      (Config.mm_name mm)
  in
  QCheck.Test.make ~name ~count:25
    QCheck.(
      pair (int_bound 1000)
        (small_list (triple (int_bound 3) (int_bound 15) (int_bound 3))))
    (fun (seed, ops) ->
      ignore seed;
      let cl = make ~mm () in
      let pages = 4 in
      let _obj, tasks = setup_shared cl ~nodes:4 ~pages in
      let reference = Array.make (pages * wpp) 0 in
      let counter = ref 0 in
      List.for_all
        (fun (node, word, kind) ->
          let addr = word mod (pages * wpp) in
          if kind = 0 then begin
            incr counter;
            reference.(addr) <- !counter;
            wr cl tasks.(node) addr !counter;
            true
          end
          else rd cl tasks.(node) addr = reference.(addr))
        ops)

let test_deterministic_runs () =
  let run () =
    let cl = make ~mm:Config.Mm_asvm () in
    let _obj, tasks = setup_shared cl ~nodes:4 ~pages:8 in
    for i = 0 to 20 do
      wr cl tasks.(i mod 4) ((i mod 8) * wpp) i
    done;
    (Cluster.now cl, Cluster.protocol_messages cl)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_asvm_beats_xmm_on_fault_latency () =
  (* shape check: the same remote write fault must be much cheaper under
     ASVM than under XMM *)
  let fault_time mm =
    let cl = make ~mm () in
    let _obj, tasks = setup_shared cl ~nodes:4 ~pages:2 in
    wr cl tasks.(0) 0 1;
    ignore (rd cl tasks.(1) 0);
    let t0 = Cluster.now cl in
    wr cl tasks.(2) 0 2;
    Cluster.now cl -. t0
  in
  let asvm = fault_time Config.Mm_asvm in
  let xmm = fault_time Config.Mm_xmm in
  Alcotest.(check bool)
    (Printf.sprintf "ASVM (%.2f ms) at least 3x faster than XMM (%.2f ms)" asvm
       xmm)
    true
    (asvm *. 3. < xmm)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "cluster"
    [
      ( "coherence",
        [
          Alcotest.test_case "asvm basic" `Quick (coherence_scenario Config.Mm_asvm);
          Alcotest.test_case "xmm basic" `Quick (coherence_scenario Config.Mm_xmm);
          Alcotest.test_case "asvm upgrade" `Quick (upgrade_scenario Config.Mm_asvm);
          Alcotest.test_case "xmm upgrade" `Quick (upgrade_scenario Config.Mm_xmm);
          qtest (coherence_property Config.Mm_asvm);
          qtest (coherence_property Config.Mm_xmm);
        ] );
      ( "asvm state",
        [
          Alcotest.test_case "single owner" `Quick test_asvm_single_owner;
          Alcotest.test_case "reader list" `Quick test_asvm_reader_list;
          Alcotest.test_case "bounded owner state" `Quick
            test_asvm_owner_state_is_bounded;
          Alcotest.test_case "xmm dense matrix" `Quick test_xmm_state_matrix;
        ] );
      ( "fork",
        [
          Alcotest.test_case "asvm snapshot" `Quick (fork_snapshot Config.Mm_asvm);
          Alcotest.test_case "xmm snapshot" `Quick (fork_snapshot Config.Mm_xmm);
          Alcotest.test_case "asvm chain" `Quick (fork_chain Config.Mm_asvm);
          Alcotest.test_case "xmm chain" `Quick (fork_chain Config.Mm_xmm);
          Alcotest.test_case "asvm push scan" `Quick
            (fork_chain_push_scan Config.Mm_asvm);
          Alcotest.test_case "xmm late writes" `Quick
            (fork_chain_push_scan Config.Mm_xmm);
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "xmm thread exhaustion" `Quick
            test_xmm_copy_chain_deadlock;
          Alcotest.test_case "xmm enough threads" `Quick
            test_xmm_no_deadlock_with_threads;
          Alcotest.test_case "asvm asynchronous" `Quick
            test_asvm_chain_never_deadlocks;
        ] );
      ( "concurrency",
        [
          qtest concurrent_invariants_property;
          Alcotest.test_case "soak" `Quick test_concurrent_soak;
        ] );
      ( "paging",
        [ Alcotest.test_case "internode paging" `Quick test_asvm_internode_paging ] );
      ( "files",
        [
          Alcotest.test_case "asvm mapped file" `Quick (test_file_object Config.Mm_asvm);
          Alcotest.test_case "xmm mapped file" `Quick (test_file_object Config.Mm_xmm);
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "modes equivalent" `Quick test_forwarding_modes;
          Alcotest.test_case "counters" `Quick test_forwarding_counters;
        ] );
      ( "meta",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic_runs;
          Alcotest.test_case "asvm faster" `Quick test_asvm_beats_xmm_on_fault_latency;
        ] );
    ]
