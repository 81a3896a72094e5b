(* Property-based tests of the core data structures and of fork/copy
   semantics against reference models. *)

module Engine = Asvm_simcore.Engine
module Cluster = Asvm_cluster.Cluster
module Config = Asvm_cluster.Config
module Prot = Asvm_machvm.Prot
module Address_map = Asvm_machvm.Address_map
module Hint_cache = Asvm_core.Hint_cache

let wpp = Asvm_machvm.Vm_config.default.words_per_page

(* ----------------------- hint cache ----------------------- *)

let hint_cache_capacity =
  QCheck.Test.make ~name:"hint cache never exceeds capacity" ~count:200
    QCheck.(pair (int_bound 16) (small_list (int_bound 100)))
    (fun (capacity, pages) ->
      let c = Hint_cache.create ~capacity in
      List.iter (fun page -> Hint_cache.put c ~page page) pages;
      Hint_cache.size c <= max capacity 0)

let hint_cache_lru =
  QCheck.Test.make ~name:"recently used hints survive eviction" ~count:200
    QCheck.(small_list (int_bound 50))
    (fun pages ->
      let c = Hint_cache.create ~capacity:4 in
      List.iter (fun page -> Hint_cache.put c ~page page) pages;
      (* touch page 1000, then insert 3 more: 1000 must survive *)
      Hint_cache.put c ~page:1000 1;
      ignore (Hint_cache.find c ~page:1000);
      List.iter (fun p -> Hint_cache.put c ~page:(2000 + p) p) [ 1; 2; 3 ];
      ignore (Hint_cache.find c ~page:1000);
      Hint_cache.find c ~page:1000 <> None)

let hint_cache_capacity_one =
  QCheck.Test.make ~name:"capacity-1 cache holds exactly the last put"
    ~count:200
    QCheck.(small_list (int_bound 50))
    (fun pages ->
      let c = Hint_cache.create ~capacity:1 in
      List.iter (fun page -> Hint_cache.put c ~page page) pages;
      match List.rev pages with
      | [] -> Hint_cache.size c = 0
      | last :: earlier ->
        Hint_cache.find c ~page:last = Some last
        && List.for_all
             (fun p -> p = last || Hint_cache.find c ~page:p = None)
             earlier)

let hint_cache_retouch =
  QCheck.Test.make
    ~name:"find re-touches: a probed entry outlives capacity-1 fresh inserts"
    ~count:200
    QCheck.(int_bound 3)
    (fun victim ->
      (* fill to capacity, probe one entry, then insert capacity-1 new
         pages: everything except the probed entry is evicted *)
      let c = Hint_cache.create ~capacity:4 in
      List.iter (fun page -> Hint_cache.put c ~page page) [ 0; 1; 2; 3 ];
      ignore (Hint_cache.find c ~page:victim);
      List.iter (fun p -> Hint_cache.put c ~page:(100 + p) p) [ 1; 2; 3 ];
      Hint_cache.find c ~page:victim = Some victim
      && List.for_all
           (fun p -> p = victim || Hint_cache.find c ~page:p = None)
           [ 0; 1; 2; 3 ])

(* Reference model: a cache of capacity [k] holds exactly the [k] most
   recently used distinct pages, where both [put] and a hitting [find]
   count as a use. *)
let hint_cache_churn =
  QCheck.Test.make ~name:"eviction under churn matches the LRU reference"
    ~count:300
    QCheck.(
      pair (int_range 1 8)
        (small_list (pair bool (int_bound 12))))
    (fun (capacity, ops) ->
      let c = Hint_cache.create ~capacity in
      let used = ref [] in
      let use page = used := page :: List.filter (( <> ) page) !used in
      List.iter
        (fun (is_put, page) ->
          if is_put then begin
            Hint_cache.put c ~page page;
            use page
          end
          else if Hint_cache.find c ~page <> None then use page)
        ops;
      let expected =
        List.filteri (fun i _ -> i < capacity) !used |> List.sort compare
      in
      let resident =
        List.filter
          (fun page -> Hint_cache.find c ~page <> None)
          (List.init 13 Fun.id)
        |> List.sort compare
      in
      resident = expected)

let hint_cache_zero =
  QCheck.Test.make ~name:"zero-capacity cache always misses" ~count:50
    QCheck.(small_list (int_bound 20))
    (fun pages ->
      let c = Hint_cache.create ~capacity:0 in
      List.iter (fun page -> Hint_cache.put c ~page page) pages;
      List.for_all (fun page -> Hint_cache.find c ~page = None) pages)

(* ----------------------- address map ----------------------- *)

let address_map_lookup =
  QCheck.Test.make ~name:"address map: lookup finds the covering entry"
    ~count:200
    QCheck.(small_list (pair (int_bound 100) (int_range 1 10)))
    (fun ranges ->
      let m = Address_map.create () in
      let entered =
        List.filter_map
          (fun (start, npages) ->
            match Address_map.map m ~start ~npages ~obj:1 ~obj_offset:0
                    ~inherit_:Address_map.Inherit_none
            with
            | _ -> Some (start, npages)
            | exception Invalid_argument _ -> None)
          ranges
      in
      List.for_all
        (fun (start, npages) ->
          List.for_all
            (fun off ->
              match Address_map.lookup m ~vpage:(start + off) with
              | Some e ->
                e.Address_map.start <= start + off
                && start + off < e.Address_map.start + e.Address_map.npages
              | None -> false)
            (List.init npages Fun.id))
        entered)

let address_map_no_overlap =
  QCheck.Test.make ~name:"address map rejects overlapping ranges" ~count:200
    QCheck.(pair (int_bound 50) (int_bound 50))
    (fun (a, b) ->
      let m = Address_map.create () in
      ignore
        (Address_map.map m ~start:a ~npages:10 ~obj:1 ~obj_offset:0
           ~inherit_:Address_map.Inherit_none);
      let overlaps = b < a + 10 && a < b + 10 in
      match
        Address_map.map m ~start:b ~npages:10 ~obj:2 ~obj_offset:0
          ~inherit_:Address_map.Inherit_none
      with
      | _ -> not overlaps
      | exception Invalid_argument _ -> overlaps)

let find_space_is_free =
  QCheck.Test.make ~name:"find_space returns a mappable range" ~count:200
    QCheck.(pair (small_list (int_bound 60)) (int_range 1 8))
    (fun (starts, npages) ->
      let m = Address_map.create () in
      List.iter
        (fun start ->
          try
            ignore
              (Address_map.map m ~start ~npages:4 ~obj:1 ~obj_offset:0
                 ~inherit_:Address_map.Inherit_none)
          with Invalid_argument _ -> ())
        starts;
      let start = Address_map.find_space m ~hint:0 ~npages in
      match
        Address_map.map m ~start ~npages ~obj:9 ~obj_offset:0
          ~inherit_:Address_map.Inherit_none
      with
      | _ -> true
      | exception Invalid_argument _ -> false)

(* ----------------------- fork semantics ----------------------- *)

(* Reference model: each generation's view is a full array snapshot.
   Random interleavings of writes (at any generation) and forks (from
   any generation to a random node) must match it exactly. *)
type op = Write of int * int | Fork of int * int | Read of int * int

(* Run [ops] on 4 nodes under [mm]: task 0 copy-inherits a 3-page
   private object on node 0, tasks are numbered in fork order, and the
   n-th write stores n.  [Error] names the first fork that did not
   complete or read that differs from the reference, then the run's
   global sweeps (with no node down and static forwarding on, every
   fault must reach an owner or the pager without one) and the chaos
   invariant checker's findings. *)
let run_fork_ops ?inspect mm ops =
  let nodes = 4 in
  let pages = 3 in
  let words = pages * wpp in
  let cl = Cluster.create (Config.with_mm (Config.default ~nodes) mm) in
  let t0 = Cluster.create_task cl ~node:0 in
  let obj = Cluster.create_private_object cl ~node:0 ~size_pages:pages in
  Cluster.map cl ~task:t0 ~obj ~start:0 ~npages:pages
    ~inherit_:Address_map.Inherit_copy;
  let tasks = ref [| t0 |] in
  let refs = ref [| Array.make words 0 |] in
  let value = ref 0 in
  (* each op runs for at most a simulated second: a request that
     circled would otherwise hang the run instead of failing its op;
     [inspect] also sees the cluster half a millisecond into each op,
     with its messages in flight *)
  let run () =
    Option.iter
      (fun inspect ->
        Cluster.run ~until:(Cluster.now cl +. 0.5) cl;
        inspect cl)
      inspect;
    Cluster.run ~until:(Cluster.now cl +. 1000.) cl
  in
  let rec go = function
    | [] -> Ok ()
    | op :: rest -> (
      let gens = Array.length !tasks in
      match op with
      | Write (g, addr) ->
        let g = g mod gens in
        incr value;
        !refs.(g).(addr) <- !value;
        let ok = ref false in
        Cluster.write_word cl ~task:!tasks.(g) ~addr ~value:!value (fun () ->
            ok := true);
        run ();
        if !ok then go rest
        else Error (Printf.sprintf "task %d: write of word %d stuck" g addr)
      | Fork (g, node) -> (
        let g = g mod gens in
        let child = ref None in
        Cluster.fork cl ~task:!tasks.(g) ~dst_node:node (fun c -> child := Some c);
        run ();
        match !child with
        | Some c ->
          tasks := Array.append !tasks [| c |];
          refs := Array.append !refs [| Array.copy !refs.(g) |];
          go rest
        | None -> Error (Printf.sprintf "task %d: fork to node %d stuck" g node))
      | Read (g, addr) ->
        let g = g mod gens in
        let r = ref None in
        Cluster.read_word cl ~task:!tasks.(g) ~addr (fun v -> r := Some v);
        run ();
        let expected = !refs.(g).(addr) in
        if !r = Some expected then go rest
        else
          Error
            (Printf.sprintf "task %d: word %d reads %s, expected %d" g addr
               (match !r with Some v -> string_of_int v | None -> "nothing")
               expected))
  in
  match go ops with
  | Error _ as e -> e
  | Ok () ->
    Option.iter (fun inspect -> inspect cl) inspect;
    let sweeps =
      Asvm_obs.Metrics.counter_total
        ~where:(fun ls -> List.assoc_opt "mechanism" ls = Some "global_sweep")
        (Cluster.metrics_snapshot cl) "asvm.forwarding"
    in
    if sweeps > 0 then Error (Printf.sprintf "%d global sweeps" sweeps)
    else
      match Asvm_chaos.Invariants.check cl with
      | [] -> Ok ()
      | findings -> Error (String.concat "; " findings)

let fork_semantics mm =
  let name =
    Printf.sprintf "%s fork chains match the snapshot reference"
      (Config.mm_name mm)
  in
  QCheck.Test.make ~name ~count:15
    QCheck.(
      small_list
        (triple (int_bound 2) (int_bound 5) (pair (int_bound 3) (int_bound 50))))
    (fun raw_ops ->
      let words = 3 * wpp in
      run_fork_ops mm
        (List.map
           (fun (kind, gen_pick, (node, addr_pick)) ->
             match kind with
             | 0 -> Write (gen_pick, addr_pick mod words)
             | 1 -> Fork (gen_pick, node)
             | _ -> Read (gen_pick, addr_pick mod words))
           raw_ops)
      = Ok ())

(* Minimized ASVM failures of the property above.  A-C are at the
   promotion of a node-local copy to a distributed one
   ([Vm.unsplice_copy], paper 3.7).  A: the older sibling copy, rebased
   onto the source, must keep the frozen page it read through the
   promoted copy.  B: a task that read through the promoted copy must
   not keep its translation into the source's frame.  C: nor its
   translation into the promoted copy's own frame, which a sibling then
   writes.  D: a pull down the shadow chain must not claim the shadow
   object's page for the faulting node, whose answer fills its own
   object's page: every later fault on the shadow page once circled
   between its static manager and that node, ending in global sweeps.
   E: node 0 owns page 1 of a copy, filled through a pull when its
   child read it (the copy's peer is node 3, the page's static manager
   node 1).  When node 0 then writes page 1 of the source, its push
   scan must not take the manager's entry for node 0 as its own claim:
   the scan then went to the pager, found nothing, and the push made
   node 3 a second owner of the copy page. *)
let fork_case ops () =
  Alcotest.(check (result unit string))
    "reads match the reference" (Ok ())
    (run_fork_ops Config.Mm_asvm ops)

let fork_case_a =
  [ Fork (0, 0); Fork (1, 2); Fork (1, 2); Write (1, 4); Fork (2, 0); Read (2, 4) ]

let fork_case_b =
  [ Fork (0, 2); Fork (1, 2); Read (2, 0); Fork (2, 0); Write (1, 6); Read (2, 6) ]

let fork_case_c =
  [
    Fork (0, 0); Fork (1, 2); Fork (1, 2); Write (1, 4); Read (2, 4); Fork (2, 0);
    Write (3, 5); Read (2, 5);
  ]

let fork_case_d = [ Fork (5, 0); Fork (4, 3); Fork (1, 1); Write (3, 3); Write (0, 6) ]

let fork_case_e = [ Fork (0, 3); Fork (3, 0); Read (2, 19); Write (3, 23) ]

(* ----------------------- audits ----------------------- *)

(* Both audits visit only the pages some node owns or holds.  Walking
   every page of every object instead must give the same findings in
   the same order: on the fork property's op sequences, at each op's
   mid-flight state and at its end, and on clusters with planted
   faults. *)
let every_page ~obj:_ ~size = List.init size Fun.id

(* the two walks' findings of both audits, as (expected, got) *)
let audits cl =
  let asvm =
    match Cluster.backend cl with
    | `Asvm a ->
      ( Asvm_core.Asvm.check_invariants ~pages:every_page a,
        Asvm_core.Asvm.check_invariants a )
    | `Xmm _ -> ([], [])
  in
  (asvm, (Asvm_chaos.Invariants.check ~pages:every_page cl, Asvm_chaos.Invariants.check cl))

let audits_walk_what_matters mm =
  let name =
    Printf.sprintf "%s audits of owned and resident pages match the full walk"
      (Config.mm_name mm)
  in
  QCheck.Test.make ~name ~count:15
    QCheck.(
      small_list
        (triple (int_bound 2) (int_bound 5) (pair (int_bound 3) (int_bound 50))))
    (fun raw_ops ->
      let words = 3 * wpp in
      let same = ref true in
      let inspect cl =
        let (e1, g1), (e2, g2) = audits cl in
        if e1 <> g1 || e2 <> g2 then same := false
      in
      ignore
        (run_fork_ops ~inspect mm
           (List.map
              (fun (kind, gen_pick, (node, addr_pick)) ->
                match kind with
                | 0 -> Write (gen_pick, addr_pick mod words)
                | 1 -> Fork (gen_pick, node)
                | _ -> Read (gen_pick, addr_pick mod words))
              raw_ops));
      !same)

(* A 16-page object shared by nodes 0-2: node 1 wrote pages 2, 5 and 9,
   nodes 0 and 2 read page 2 and node 2 read page 5.  [plant] then
   corrupts the quiesced cluster behind the protocol's back, on two
   pages where it can, so that the findings' order is checked too. *)
let planted_fault mm plant () =
  let cl = Cluster.create (Config.with_mm (Config.default ~nodes:3) mm) in
  let obj =
    Cluster.create_shared_object cl ~size_pages:16 ~sharers:[ 0; 1; 2 ] ()
  in
  let task node =
    let t = Cluster.create_task cl ~node in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:16
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let tasks = Array.init 3 task in
  List.iter
    (fun page ->
      Cluster.write_word cl ~task:tasks.(1) ~addr:(page * wpp) ~value:page
        ignore)
    [ 2; 5; 9 ];
  Cluster.run cl;
  List.iter
    (fun (node, page) ->
      Cluster.read_word cl ~task:tasks.(node) ~addr:(page * wpp) ignore)
    [ (0, 2); (2, 2); (2, 5) ];
  Cluster.run cl;
  let frame node page =
    match
      Asvm_machvm.Vm_object.frame
        (Asvm_machvm.Vm.get_object (Cluster.node_vm cl node) obj)
        page
    with
    | Some fr -> fr
    | None -> Alcotest.failf "node %d should hold page %d" node page
  in
  plant cl ~obj ~frame;
  let (e1, g1), (e2, g2) = audits cl in
  Alcotest.(check bool) "the planted fault is found" true (e2 <> []);
  Alcotest.(check (list string)) "Asvm.check_invariants" e1 g1;
  Alcotest.(check (list string)) "Invariants.check" e2 g2

(* node 2's copies of pages 2 and 5 differ from the others *)
let plant_fork _cl ~obj:_ ~frame =
  List.iter
    (fun page ->
      Asvm_machvm.Contents.set (frame 2 page).Asvm_machvm.Vm_object.contents
        0 (-1))
    [ 2; 5 ]

(* node 2's kernel may write pages 2 and 5 *)
let plant_writer _cl ~obj:_ ~frame =
  List.iter
    (fun page -> (frame 2 page).Asvm_machvm.Vm_object.access <- Prot.Read_write)
    [ 2; 5 ]

(* the owner of page 9, its only holder, loses its frame: the page is
   owned but resident nowhere *)
let plant_lost_frame cl ~obj ~frame:_ =
  let o = Asvm_machvm.Vm.get_object (Cluster.node_vm cl 1) obj in
  Asvm_machvm.Vm_object.remove o ~page:9

(* node 2's kernel faults page 9 through a manager that never answers:
   after the run the fault is still parked on a node that is up *)
let plant_parked_fault cl ~obj ~frame:_ =
  let silent =
    {
      Asvm_machvm.Emmi.null_manager with
      Asvm_machvm.Emmi.m_data_request = (fun ~page:_ ~desired:_ -> ());
    }
  in
  Asvm_machvm.Vm.set_manager (Cluster.node_vm cl 2) obj (Some silent);
  let task = Cluster.create_task cl ~node:2 in
  Cluster.map cl ~task ~obj ~start:0 ~npages:16
    ~inherit_:Address_map.Inherit_share;
  Cluster.read_word cl ~task ~addr:(9 * wpp) ignore;
  Cluster.run cl

(* ----------------------- single-node VM model ----------------------- *)

(* Random sequences of writes, reads, local copies (fork-style) and
   forced evictions on one kernel, checked against per-generation
   snapshot arrays. Exercises symmetric/asymmetric chains interleaved
   with paging. *)
let vm_local_semantics =
  QCheck.Test.make ~name:"single-node VM matches snapshot reference" ~count:40
    QCheck.(small_list (triple (int_bound 3) (int_bound 31) (int_bound 2)))
    (fun raw_ops ->
      let module M = Asvm_machvm in
      let module Vm = M.Vm in
      let engine = Asvm_simcore.Engine.create () in
      let wpp = 4 in
      let config =
        { M.Vm_config.default with words_per_page = wpp; memory_pages = 6 }
      in
      let ids = M.Ids.Alloc.create () in
      let vm =
        Vm.create ~engine ~node:0 ~config ~backing:(M.Backing.in_memory ()) ~ids
      in
      let pages = 8 in
      let words = pages * wpp in
      let task0 = Vm.create_task vm in
      let obj0 =
        Vm.create_object vm ~id:(M.Ids.Alloc.fresh ids) ~size_pages:pages
          ~temporary:true
      in
      ignore
        (Vm.map vm ~task:task0 ~obj:obj0.M.Vm_object.id ~start:0 ~npages:pages
           ~obj_offset:0 ~inherit_:M.Address_map.Inherit_copy);
      let tasks = ref [| task0 |] in
      let objs = ref [| obj0.M.Vm_object.id |] in
      let refs = ref [| Array.make words 0 |] in
      let stamp = ref 0 in
      let sync_write task addr v =
        let ok = ref false in
        Vm.write_word vm ~task ~addr ~value:v (fun () -> ok := true);
        Asvm_simcore.Engine.run engine;
        !ok
      in
      let sync_read task addr =
        let r = ref None in
        Vm.read_word vm ~task ~addr (fun v -> r := Some v);
        Asvm_simcore.Engine.run engine;
        !r
      in
      List.for_all
        (fun (kind, addr_pick, gen_pick) ->
          let gens = Array.length !tasks in
          let g = gen_pick mod gens in
          let addr = addr_pick mod words in
          match kind with
          | 0 ->
            incr stamp;
            !refs.(g).(addr) <- !stamp;
            sync_write !tasks.(g) addr !stamp
          | 1 -> sync_read !tasks.(g) addr = Some !refs.(g).(addr)
          | 2 ->
            (* local fork of generation g via asymmetric copy *)
            let c = Vm.make_asymmetric_copy vm ~src:!objs.(g) in
            let child = Vm.create_task vm in
            ignore
              (Vm.map vm ~task:child ~obj:c.M.Vm_object.id ~start:0
                 ~npages:pages ~obj_offset:0
                 ~inherit_:M.Address_map.Inherit_copy);
            tasks := Array.append !tasks [| child |];
            objs := Array.append !objs [| c.M.Vm_object.id |];
            refs := Array.append !refs [| Array.copy !refs.(g) |];
            true
          | _ ->
            (* memory pressure: force an eviction if possible *)
            ignore (Vm.evict_one vm);
            Asvm_simcore.Engine.run engine;
            true)
        raw_ops)

(* ----------------------- zero-size caches ----------------------- *)

let test_zero_caches () =
  (* with both hint caches of size 0, every request falls through to
     global forwarding / the seen-bitmap paths — results must not change *)
  let config = Config.default ~nodes:4 in
  let config =
    {
      config with
      asvm = { config.asvm with dynamic_cache_pages = 0; static_cache_pages = 0 };
    }
  in
  let cl = Cluster.create config in
  let obj =
    Cluster.create_shared_object cl ~size_pages:4 ~sharers:[ 0; 1; 2; 3 ] ()
  in
  let task node =
    let t = Cluster.create_task cl ~node in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:4
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t0 = task 0 and t1 = task 1 and t2 = task 2 in
  let wr t addr v =
    Cluster.write_word cl ~task:t ~addr ~value:v (fun () -> ());
    Cluster.run cl
  in
  let rd t addr =
    let r = ref 0 in
    Cluster.read_word cl ~task:t ~addr (fun v -> r := v);
    Cluster.run cl;
    !r
  in
  wr t0 0 5;
  Alcotest.(check int) "read via sweeps" 5 (rd t1 0);
  wr t2 0 6;
  Alcotest.(check int) "write migrates via sweeps" 6 (rd t0 0);
  wr t1 0 7;
  Alcotest.(check int) "and again" 7 (rd t2 0)

(* ----------------------- flow control under starvation -------------- *)

(* a single receive buffer per node *)
let one_buffer_config ~nodes =
  let config = Config.default ~nodes in
  {
    config with
    asvm =
      {
        config.asvm with
        sts = { config.asvm.sts with Asvm_sts.Sts.page_buffers = 1 };
      };
  }

let test_tiny_buffer_pool () =
  (* requests wait for their node's only buffer; the workload still
     completes with correct values *)
  let cl = Cluster.create (one_buffer_config ~nodes:4) in
  let pages = 6 in
  let obj =
    Cluster.create_shared_object cl ~size_pages:pages ~sharers:[ 0; 1; 2; 3 ] ()
  in
  let tasks =
    Array.init 4 (fun node ->
        let t = Cluster.create_task cl ~node in
        Cluster.map cl ~task:t ~obj ~start:0 ~npages:pages
          ~inherit_:Address_map.Inherit_share;
        t)
  in
  (* every node floods faults over all pages concurrently *)
  let remaining = ref (4 * pages) in
  Array.iter
    (fun task ->
      for p = 0 to pages - 1 do
        Cluster.write_word cl ~task ~addr:(p * wpp) ~value:p (fun () ->
            decr remaining)
      done)
    tasks;
  Cluster.run cl;
  Alcotest.(check int) "all writes completed despite starvation" 0 !remaining;
  let a = match Cluster.backend cl with `Asvm a -> a | `Xmm _ -> assert false in
  Alcotest.(check (list string)) "invariants clean" []
    (Asvm_core.Asvm.check_invariants a)

let test_upgrade_waits_for_buffer () =
  (* a self-owned write upgrade that waits for the node's only receive
     buffer while ownership leaves must still complete: it is routed
     afresh once it holds the buffer *)
  let cl = Cluster.create (one_buffer_config ~nodes:2) in
  let obj = Cluster.create_shared_object cl ~size_pages:2 ~sharers:[ 0; 1 ] () in
  let task node =
    let t = Cluster.create_task cl ~node in
    Cluster.map cl ~task:t ~obj ~start:0 ~npages:2
      ~inherit_:Address_map.Inherit_share;
    t
  in
  let t0 = task 0 and t1 = task 1 in
  Cluster.read_word cl ~task:t0 ~addr:0 ignore;
  Cluster.run cl;
  (* node 0 owns page 0 read-only; its only buffer goes to a page-1
     read while it upgrades page 0 and node 1 writes page 0 *)
  let done_ = ref 0 in
  Cluster.read_word cl ~task:t0 ~addr:wpp (fun _ -> incr done_);
  Cluster.write_word cl ~task:t0 ~addr:0 ~value:1 (fun () -> incr done_);
  Cluster.write_word cl ~task:t1 ~addr:0 ~value:2 (fun () -> incr done_);
  Cluster.run cl;
  Alcotest.(check int) "all three accesses complete" 3 !done_;
  let a = match Cluster.backend cl with `Asvm a -> a | `Xmm _ -> assert false in
  Alcotest.(check (list string)) "invariants clean" []
    (Asvm_core.Asvm.check_invariants a);
  let rd t =
    let r = ref (-1) in
    Cluster.read_word cl ~task:t ~addr:0 (fun v -> r := v);
    Cluster.run cl;
    !r
  in
  let v0 = rd t0 in
  Alcotest.(check bool) "node 0 reads page 0 again" true (v0 = 1 || v0 = 2);
  Alcotest.(check int) "both nodes agree" v0 (rd t1)

let test_em3d_deterministic () =
  let run () =
    let r =
      Asvm_workloads.Em3d.run ~mm:Config.Mm_asvm
        { cells = 8_000; nodes = 4; iterations = 3; seed = 99 }
    in
    (r.Asvm_workloads.Em3d.seconds, r.Asvm_workloads.Em3d.faults,
     r.Asvm_workloads.Em3d.protocol_messages)
  in
  Alcotest.(check bool) "bit-identical reruns" true (run () = run ())

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "properties"
    [
      ( "hint cache",
        [
          qtest hint_cache_capacity;
          qtest hint_cache_lru;
          qtest hint_cache_capacity_one;
          qtest hint_cache_retouch;
          qtest hint_cache_churn;
          qtest hint_cache_zero;
        ] );
      ( "address map",
        [
          qtest address_map_lookup;
          qtest address_map_no_overlap;
          qtest find_space_is_free;
        ] );
      ( "fork semantics",
        [
          qtest (fork_semantics Config.Mm_asvm);
          qtest (fork_semantics Config.Mm_xmm);
          Alcotest.test_case "promotion keeps the older copy's frozen page"
            `Quick (fork_case fork_case_a);
          Alcotest.test_case "promotion drops translations into the source"
            `Quick (fork_case fork_case_b);
          Alcotest.test_case "promotion drops translations into the copy"
            `Quick (fork_case fork_case_c);
          Alcotest.test_case "a pull claims nothing in the shadow object"
            `Quick (fork_case fork_case_d);
          Alcotest.test_case "a push scan is not a claim" `Quick
            (fork_case fork_case_e);
        ] );
      ( "audits",
        [
          qtest (audits_walk_what_matters Config.Mm_asvm);
          qtest (audits_walk_what_matters Config.Mm_xmm);
          Alcotest.test_case "asvm forked page" `Quick
            (planted_fault Config.Mm_asvm plant_fork);
          Alcotest.test_case "xmm forked page" `Quick
            (planted_fault Config.Mm_xmm plant_fork);
          Alcotest.test_case "asvm writer without ownership" `Quick
            (planted_fault Config.Mm_asvm plant_writer);
          Alcotest.test_case "xmm writer beside readers" `Quick
            (planted_fault Config.Mm_xmm plant_writer);
          Alcotest.test_case "asvm owner without its frame" `Quick
            (planted_fault Config.Mm_asvm plant_lost_frame);
          Alcotest.test_case "asvm fault parked on a live node" `Quick
            (planted_fault Config.Mm_asvm plant_parked_fault);
          Alcotest.test_case "xmm fault parked on a live node" `Quick
            (planted_fault Config.Mm_xmm plant_parked_fault);
        ] );
      ("vm model", [ qtest vm_local_semantics ]);
      ("forwarding", [ Alcotest.test_case "zero caches" `Quick test_zero_caches ]);
      ( "robustness",
        [
          Alcotest.test_case "tiny buffer pool" `Quick test_tiny_buffer_pool;
          Alcotest.test_case "upgrade waits for a buffer" `Quick
            test_upgrade_waits_for_buffer;
          Alcotest.test_case "em3d deterministic" `Quick test_em3d_deterministic;
        ] );
    ]
