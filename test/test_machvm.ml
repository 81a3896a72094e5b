(* Tests for the per-node Mach VM model: local faulting, shadow/copy
   chains, eviction and the kernel EMMI entry points. *)

module Engine = Asvm_simcore.Engine
module M = Asvm_machvm
module Vm = M.Vm
module Prot = M.Prot
module Contents = M.Contents
module Emmi = M.Emmi
module Address_map = M.Address_map

let wpp = 4

let make_vm ?(memory_pages = 10_000) () =
  let engine = Engine.create () in
  let config =
    { M.Vm_config.default with words_per_page = wpp; memory_pages }
  in
  let ids = M.Ids.Alloc.create () in
  let vm =
    Vm.create ~engine ~node:0 ~config ~backing:(M.Backing.in_memory ()) ~ids
  in
  (engine, ids, vm)

(* Synchronous helpers: run the engine to completion around async ops. *)
let run_write engine vm task addr value =
  let done_ = ref false in
  Vm.write_word vm ~task ~addr ~value (fun () -> done_ := true);
  Engine.run engine;
  if not !done_ then Alcotest.fail "write did not complete"

let run_read engine vm task addr =
  let result = ref None in
  Vm.read_word vm ~task ~addr (fun v -> result := Some v);
  Engine.run engine;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "read did not complete"

let map_fresh ?(npages = 8) vm ids task =
  let obj =
    Vm.create_object vm ~id:(M.Ids.Alloc.fresh ids) ~size_pages:npages
      ~temporary:true
  in
  ignore
    (Vm.map vm ~task ~obj:obj.M.Vm_object.id ~start:0 ~npages ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_copy);
  obj

let test_zero_fill_read () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  ignore (map_fresh vm ids task);
  Alcotest.(check int) "fresh memory reads zero" 0 (run_read engine vm task 5)

let test_write_then_read () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  ignore (map_fresh vm ids task);
  run_write engine vm task 9 42;
  Alcotest.(check int) "read back" 42 (run_read engine vm task 9);
  Alcotest.(check int) "other word still zero" 0 (run_read engine vm task 8)

let test_fault_accounting () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  ignore (map_fresh vm ids task);
  run_write engine vm task 0 1;
  let f1 = Vm.faults vm in
  (* same page, write access already installed: no new fault *)
  run_write engine vm task 1 2;
  Alcotest.(check int) "no second fault" f1 (Vm.faults vm);
  Alcotest.(check bool) "faults were local" true (Vm.local_faults vm > 0)

let test_read_then_write_upgrades () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  ignore (map_fresh vm ids task);
  Alcotest.(check int) "read first" 0 (run_read engine vm task 0);
  let f1 = Vm.faults vm in
  run_write engine vm task 0 7;
  Alcotest.(check int) "write after read faults again" (f1 + 1) (Vm.faults vm);
  Alcotest.(check int) "value" 7 (run_read engine vm task 0)

let test_unmapped_faults () =
  let engine, _ids, vm = make_vm () in
  let task = Vm.create_task vm in
  let failed = ref false in
  Vm.read_word vm ~task ~addr:0 (fun _ -> ());
  (try Engine.run engine with Failure _ -> failed := true);
  Alcotest.(check bool) "unmapped access fails" true !failed

(* --------------- symmetric copy --------------- *)

let test_symmetric_copy_isolation () =
  let engine, ids, vm = make_vm () in
  let parent = Vm.create_task vm in
  let obj = map_fresh vm ids parent in
  run_write engine vm parent 0 11;
  (* "fork": child maps the same object; both entries need_copy *)
  let child = Vm.create_task vm in
  ignore
    (Vm.map vm ~task:child ~obj:obj.M.Vm_object.id ~start:0 ~npages:8
       ~obj_offset:0 ~inherit_:M.Address_map.Inherit_copy);
  Vm.mark_needs_copy vm ~task:parent ~start:0;
  Vm.mark_needs_copy vm ~task:child ~start:0;
  (* child reads through the shared frozen object *)
  Alcotest.(check int) "child sees parent value" 11 (run_read engine vm child 0);
  (* child writes: gets its own shadow object *)
  run_write engine vm child 0 22;
  Alcotest.(check int) "child sees own write" 22 (run_read engine vm child 0);
  Alcotest.(check int) "parent unaffected" 11 (run_read engine vm parent 0);
  (* parent writes: gets its own shadow too *)
  run_write engine vm parent 1 33;
  Alcotest.(check int) "parent write visible to parent" 33
    (run_read engine vm parent 1);
  Alcotest.(check int) "child still sees frozen zero" 0 (run_read engine vm child 1)

(* --------------- asymmetric copy --------------- *)

let test_asymmetric_copy_pull () =
  let engine, ids, vm = make_vm () in
  let parent = Vm.create_task vm in
  let obj = map_fresh vm ids parent in
  run_write engine vm parent 0 7;
  let copy = Vm.make_asymmetric_copy vm ~src:obj.M.Vm_object.id in
  let child = Vm.create_task vm in
  ignore
    (Vm.map vm ~task:child ~obj:copy.M.Vm_object.id ~start:0 ~npages:8
       ~obj_offset:0 ~inherit_:M.Address_map.Inherit_copy);
  (* pull: the page is retrieved through the shadow link *)
  Alcotest.(check int) "copy sees snapshot" 7 (run_read engine vm child 0)

let test_asymmetric_copy_push () =
  let engine, ids, vm = make_vm () in
  let parent = Vm.create_task vm in
  let obj = map_fresh vm ids parent in
  run_write engine vm parent 0 7;
  let copy = Vm.make_asymmetric_copy vm ~src:obj.M.Vm_object.id in
  let child = Vm.create_task vm in
  ignore
    (Vm.map vm ~task:child ~obj:copy.M.Vm_object.id ~start:0 ~npages:8
       ~obj_offset:0 ~inherit_:M.Address_map.Inherit_copy);
  (* parent modifies after the copy: frozen contents are pushed first *)
  run_write engine vm parent 0 9;
  Alcotest.(check int) "parent sees new value" 9 (run_read engine vm parent 0);
  Alcotest.(check int) "copy still sees snapshot" 7 (run_read engine vm child 0);
  (* the push marked the page version current: a second write to the
     same page is silent *)
  let f = Vm.faults vm in
  run_write engine vm parent wpp 1;
  run_write engine vm parent (wpp + 1) 2;
  Alcotest.(check int) "second write to same page no fault" (f + 1) (Vm.faults vm)

let test_copy_chain_three_generations () =
  let engine, ids, vm = make_vm () in
  let t1 = Vm.create_task vm in
  let obj = map_fresh vm ids t1 in
  run_write engine vm t1 0 1;
  (* generation 2 *)
  let c1 = Vm.make_asymmetric_copy vm ~src:obj.M.Vm_object.id in
  let t2 = Vm.create_task vm in
  ignore
    (Vm.map vm ~task:t2 ~obj:c1.M.Vm_object.id ~start:0 ~npages:8 ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_copy);
  run_write engine vm t1 0 2;
  (* generation 3: copy of the copy *)
  let c2 = Vm.make_asymmetric_copy vm ~src:c1.M.Vm_object.id in
  let t3 = Vm.create_task vm in
  ignore
    (Vm.map vm ~task:t3 ~obj:c2.M.Vm_object.id ~start:0 ~npages:8 ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_copy);
  Alcotest.(check int) "t1 sees latest" 2 (run_read engine vm t1 0);
  Alcotest.(check int) "t2 sees snapshot at fork 1" 1 (run_read engine vm t2 0);
  Alcotest.(check int) "t3 sees snapshot at fork 2" 1 (run_read engine vm t3 0);
  run_write engine vm t2 0 5;
  Alcotest.(check int) "t2 write isolated from t3" 1 (run_read engine vm t3 0);
  Alcotest.(check int) "t2 write isolated from t1" 2 (run_read engine vm t1 0)

let test_multiple_copies_of_same_source () =
  let engine, ids, vm = make_vm () in
  let t1 = Vm.create_task vm in
  let obj = map_fresh vm ids t1 in
  run_write engine vm t1 0 10;
  let c1 = Vm.make_asymmetric_copy vm ~src:obj.M.Vm_object.id in
  let t2 = Vm.create_task vm in
  ignore
    (Vm.map vm ~task:t2 ~obj:c1.M.Vm_object.id ~start:0 ~npages:8 ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_copy);
  run_write engine vm t1 0 20;
  (* second copy sees the value at ITS copy time *)
  let c2 = Vm.make_asymmetric_copy vm ~src:obj.M.Vm_object.id in
  let t3 = Vm.create_task vm in
  ignore
    (Vm.map vm ~task:t3 ~obj:c2.M.Vm_object.id ~start:0 ~npages:8 ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_copy);
  run_write engine vm t1 0 30;
  Alcotest.(check int) "first copy snapshot" 10 (run_read engine vm t2 0);
  Alcotest.(check int) "second copy snapshot" 20 (run_read engine vm t3 0);
  Alcotest.(check int) "source current" 30 (run_read engine vm t1 0)

(* --------------- eviction / backing store --------------- *)

let test_eviction_preserves_data () =
  let engine, ids, vm = make_vm ~memory_pages:4 () in
  let task = Vm.create_task vm in
  ignore (map_fresh ~npages:16 vm ids task);
  for p = 0 to 15 do
    run_write engine vm task (p * wpp) (100 + p)
  done;
  Alcotest.(check bool) "capacity respected" true (Vm.resident_total vm <= 4);
  for p = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "page %d preserved" p)
      (100 + p)
      (run_read engine vm task (p * wpp))
  done

let test_eviction_skips_wired () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  let obj = map_fresh vm ids task in
  run_write engine vm task 0 1;
  Vm.wire vm ~obj:obj.M.Vm_object.id ~page:0;
  Alcotest.(check bool) "only frame wired: no eviction" false (Vm.evict_one vm);
  Vm.unwire vm ~obj:obj.M.Vm_object.id ~page:0;
  Alcotest.(check bool) "unwired: evicts" true (Vm.evict_one vm);
  ignore engine

(* --------------- managed objects / kernel EMMI --------------- *)

(* A toy manager that supplies pages with a recognisable pattern and
   records requests; stands in for XMM/ASVM in kernel-level tests. *)
let toy_manager vm oid ~grant =
  let requests = ref [] in
  let manager =
    {
      Emmi.m_data_request =
        (fun ~page ~desired ->
          requests := (`Request, page, desired) :: !requests;
          let c = Contents.zero ~words:wpp in
          Contents.set c 0 (1000 + page);
          Vm.data_supply vm ~obj:oid ~page ~contents:c ~lock:grant
            ~mode:Emmi.Supply_normal);
      m_data_unlock =
        (fun ~page ~desired ->
          requests := (`Unlock, page, desired) :: !requests;
          Vm.lock_request vm ~obj:oid ~page
            ~op:{ Emmi.max_access = Prot.Read_write; clean = false; mode = Emmi.Lock_plain }
            ~reply:(fun _ -> ()));
      m_data_return =
        (fun ~page ~contents:_ ~dirty:_ ->
          requests := (`Return, page, Prot.No_access) :: !requests);
    }
  in
  (manager, requests)

let test_managed_read_fault () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  let oid = M.Ids.Alloc.fresh ids in
  let _obj = Vm.create_object vm ~id:oid ~size_pages:8 ~temporary:false in
  let manager, requests = toy_manager vm oid ~grant:Prot.Read_only in
  Vm.set_manager vm oid (Some manager);
  ignore
    (Vm.map vm ~task ~obj:oid ~start:0 ~npages:8 ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_share);
  Alcotest.(check int) "manager-supplied" 1003 (run_read engine vm task (3 * wpp));
  Alcotest.(check int) "one request" 1 (List.length !requests);
  Alcotest.(check bool) "resident now" true (Vm.is_resident vm ~obj:oid ~page:3)

let test_managed_upgrade () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  let oid = M.Ids.Alloc.fresh ids in
  ignore (Vm.create_object vm ~id:oid ~size_pages:8 ~temporary:false);
  let manager, requests = toy_manager vm oid ~grant:Prot.Read_only in
  Vm.set_manager vm oid (Some manager);
  ignore
    (Vm.map vm ~task ~obj:oid ~start:0 ~npages:8 ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_share);
  Alcotest.(check int) "read in" 1000 (run_read engine vm task 0);
  run_write engine vm task 0 5;
  Alcotest.(check int) "write visible" 5 (run_read engine vm task 0);
  let kinds = List.map (fun (k, _, _) -> k) !requests in
  Alcotest.(check bool) "unlock was requested" true (List.mem `Unlock kinds)

let test_lock_request_flush_returns_dirty () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  let oid = M.Ids.Alloc.fresh ids in
  ignore (Vm.create_object vm ~id:oid ~size_pages:8 ~temporary:false);
  let manager, _ = toy_manager vm oid ~grant:Prot.Read_write in
  Vm.set_manager vm oid (Some manager);
  ignore
    (Vm.map vm ~task ~obj:oid ~start:0 ~npages:8 ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_share);
  run_write engine vm task 0 77;
  let result = ref None in
  Vm.lock_request vm ~obj:oid ~page:0
    ~op:{ Emmi.max_access = Prot.No_access; clean = true; mode = Emmi.Lock_plain }
    ~reply:(fun r -> result := Some r);
  Engine.run engine;
  (match !result with
  | Some (Emmi.Lock_done { returned = Some c }) ->
    Alcotest.(check int) "dirty contents returned" 77 (Contents.get c 0)
  | _ -> Alcotest.fail "expected Lock_done with contents");
  Alcotest.(check bool) "page flushed" false (Vm.is_resident vm ~obj:oid ~page:0);
  (* a subsequent read faults to the manager again *)
  Alcotest.(check int) "refetched" 1000 (run_read engine vm task 0)

let test_lock_request_downgrade () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  let oid = M.Ids.Alloc.fresh ids in
  ignore (Vm.create_object vm ~id:oid ~size_pages:8 ~temporary:false);
  let manager, requests = toy_manager vm oid ~grant:Prot.Read_write in
  Vm.set_manager vm oid (Some manager);
  ignore
    (Vm.map vm ~task ~obj:oid ~start:0 ~npages:8 ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_share);
  run_write engine vm task 0 5;
  let result = ref None in
  Vm.lock_request vm ~obj:oid ~page:0
    ~op:{ Emmi.max_access = Prot.Read_only; clean = true; mode = Emmi.Lock_plain }
    ~reply:(fun r -> result := Some r);
  Engine.run engine;
  Alcotest.(check (option Alcotest.reject)) "ignore" None None;
  (match Vm.frame_access vm ~obj:oid ~page:0 with
  | Some Prot.Read_only -> ()
  | _ -> Alcotest.fail "expected read-only after downgrade");
  (* reads still work without manager *)
  let f = Vm.faults vm in
  Alcotest.(check int) "read ok" 5 (run_read engine vm task 0);
  Alcotest.(check int) "no new fault for read" f (Vm.faults vm);
  (* write needs the manager again *)
  run_write engine vm task 0 6;
  let kinds = List.map (fun (k, _, _) -> k) !requests in
  Alcotest.(check bool) "unlock requested after downgrade" true
    (List.mem `Unlock kinds)

(* A write grant can lose its race with eviction: the manager decides
   to let a parked write fault upgrade a read-only resident page, the
   page is evicted, and only then does the lock request run.  The fault
   must not wait for good: it faults the page in through its manager
   again. *)
let test_write_grant_after_eviction () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  let oid = M.Ids.Alloc.fresh ids in
  ignore (Vm.create_object vm ~id:oid ~size_pages:8 ~temporary:false);
  let requests = ref [] in
  let ask kind ~page ~desired = requests := (kind, page, desired) :: !requests in
  Vm.set_manager vm oid
    (Some
       {
         Emmi.m_data_request = ask `Request;
         m_data_unlock = ask `Unlock;
         m_data_return = (fun ~page:_ ~contents:_ ~dirty:_ -> ());
       });
  ignore
    (Vm.map vm ~task ~obj:oid ~start:0 ~npages:8 ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_share);
  Vm.data_supply vm ~obj:oid ~page:0 ~contents:(Contents.zero ~words:wpp)
    ~lock:Prot.Read_only ~mode:Emmi.Supply_normal;
  Engine.run engine;
  let written = ref false in
  Vm.write_word vm ~task ~addr:0 ~value:7 (fun () -> written := true);
  Engine.run engine;
  Alcotest.(check bool) "the write fault parks" false !written;
  Alcotest.(check bool) "it asked for an upgrade" true
    (!requests = [ (`Unlock, 0, Prot.Read_write) ]);
  Alcotest.(check bool) "the page is evicted" true (Vm.evict_one vm);
  Vm.lock_request vm ~obj:oid ~page:0
    ~op:{ Emmi.max_access = Prot.Read_write; clean = false; mode = Emmi.Lock_plain }
    ~reply:ignore;
  Engine.run engine;
  Alcotest.(check bool) "the fault asks for the page again" true
    (List.hd !requests = (`Request, 0, Prot.Read_write));
  Vm.data_supply vm ~obj:oid ~page:0 ~contents:(Contents.zero ~words:wpp)
    ~lock:Prot.Read_write ~mode:Emmi.Supply_normal;
  Engine.run engine;
  Alcotest.(check bool) "the write completes" true !written;
  Alcotest.(check int) "no fault left parked" 0 (Vm.pending_faults vm)

let test_lock_not_present () =
  let engine, ids, vm = make_vm () in
  let oid = M.Ids.Alloc.fresh ids in
  let obj = Vm.create_object vm ~id:oid ~size_pages:8 ~temporary:false in
  Vm.set_manager vm oid (Some Emmi.null_manager);
  (* give the object a local copy so a push is actually needed *)
  obj.M.Vm_object.manager <- None;
  ignore (Vm.make_asymmetric_copy vm ~src:oid);
  Vm.set_manager vm oid (Some Emmi.null_manager);
  let result = ref None in
  Vm.lock_request vm ~obj:oid ~page:0
    ~op:
      { Emmi.max_access = Prot.Read_only; clean = false; mode = Emmi.Lock_push_first }
    ~reply:(fun r -> result := Some r);
  Engine.run engine;
  match !result with
  | Some Emmi.Lock_not_present -> ()
  | _ -> Alcotest.fail "expected Lock_not_present for absent page with local copy"

let test_pull_request_chain () =
  let engine, ids, vm = make_vm () in
  let t1 = Vm.create_task vm in
  let obj = map_fresh vm ids t1 in
  run_write engine vm t1 0 42;
  let c1 = Vm.make_asymmetric_copy vm ~src:obj.M.Vm_object.id in
  let result = ref None in
  Vm.pull_request vm ~obj:c1.M.Vm_object.id ~page:0 ~reply:(fun r ->
      result := Some r);
  Engine.run engine;
  (match !result with
  | Some (Emmi.Pull_contents c) ->
    Alcotest.(check int) "pulled through shadow" 42 (Contents.get c 0)
  | _ -> Alcotest.fail "expected contents");
  (* page never written anywhere: zero-fill *)
  let result2 = ref None in
  Vm.pull_request vm ~obj:c1.M.Vm_object.id ~page:5 ~reply:(fun r ->
      result2 := Some r);
  Engine.run engine;
  match !result2 with
  | Some Emmi.Pull_zero_fill -> ()
  | _ -> Alcotest.fail "expected zero fill"

let test_pull_request_ask_shadow () =
  let engine, ids, vm = make_vm () in
  (* managed source, local copy of it: pull on the copy must hand back
     the managed shadow id *)
  let oid = M.Ids.Alloc.fresh ids in
  ignore (Vm.create_object vm ~id:oid ~size_pages:8 ~temporary:false);
  Vm.set_manager vm oid (Some Emmi.null_manager);
  let c = Vm.make_asymmetric_copy vm ~src:oid in
  let result = ref None in
  Vm.pull_request vm ~obj:c.M.Vm_object.id ~page:0 ~reply:(fun r ->
      result := Some r);
  Engine.run engine;
  match !result with
  | Some (Emmi.Pull_ask_shadow id) -> Alcotest.(check int) "shadow id" oid id
  | _ -> Alcotest.fail "expected ask-shadow"

let test_try_accept_page_respects_memory () =
  let engine, ids, vm = make_vm ~memory_pages:2 () in
  let task = Vm.create_task vm in
  let obj = map_fresh ~npages:4 vm ids task in
  run_write engine vm task 0 1;
  run_write engine vm task wpp 2;
  let c = Contents.zero ~words:wpp in
  Alcotest.(check bool) "full node refuses transfer" false
    (Vm.try_accept_page vm ~obj:obj.M.Vm_object.id ~page:3 ~contents:c
       ~dirty:false ~access:Prot.Read_only)

let test_contents_is_copied_on_supply () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  let oid = M.Ids.Alloc.fresh ids in
  ignore (Vm.create_object vm ~id:oid ~size_pages:4 ~temporary:false);
  let c = Contents.zero ~words:wpp in
  Contents.set c 0 9;
  let manager =
    {
      Emmi.m_data_request =
        (fun ~page ~desired:_ ->
          Vm.data_supply vm ~obj:oid ~page ~contents:c ~lock:Prot.Read_write
            ~mode:Emmi.Supply_normal);
      m_data_unlock = (fun ~page:_ ~desired:_ -> ());
      m_data_return = (fun ~page:_ ~contents:_ ~dirty:_ -> ());
    }
  in
  Vm.set_manager vm oid (Some manager);
  ignore
    (Vm.map vm ~task ~obj:oid ~start:0 ~npages:4 ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_share);
  run_write engine vm task 0 100;
  Alcotest.(check int) "supplied buffer not aliased" 9 (Contents.get c 0)

(* --------------- unmap / protect / terminate --------------- *)

let test_unmap () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  ignore (map_fresh vm ids task);
  run_write engine vm task 0 5;
  Vm.unmap vm ~task ~start:0;
  let failed = ref false in
  Vm.read_word vm ~task ~addr:0 (fun _ -> ());
  (try Engine.run engine with Failure _ -> failed := true);
  Alcotest.(check bool) "unmapped range faults" true !failed

let test_unmap_keeps_other_entries () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  let obj_a = map_fresh ~npages:4 vm ids task in
  let obj_b =
    Vm.create_object vm ~id:(M.Ids.Alloc.fresh ids) ~size_pages:4
      ~temporary:true
  in
  ignore
    (Vm.map vm ~task ~obj:obj_b.M.Vm_object.id ~start:8 ~npages:4 ~obj_offset:0
       ~inherit_:M.Address_map.Inherit_copy);
  run_write engine vm task 0 1;
  run_write engine vm task (8 * wpp) 2;
  Vm.unmap vm ~task ~start:0;
  Alcotest.(check int) "other entry intact" 2 (run_read engine vm task (8 * wpp));
  ignore obj_a

let test_protect () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  ignore (map_fresh vm ids task);
  run_write engine vm task 0 5;
  Vm.protect vm ~task ~start:0 ~max_prot:Prot.Read_only;
  Alcotest.(check int) "reads still allowed" 5 (run_read engine vm task 0);
  let failed = ref false in
  Vm.write_word vm ~task ~addr:0 ~value:6 (fun () -> ());
  (try Engine.run engine with Failure _ -> failed := true);
  Alcotest.(check bool) "write is a protection violation" true !failed

let test_protect_none_blocks_reads () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  ignore (map_fresh vm ids task);
  run_write engine vm task 0 5;
  Vm.protect vm ~task ~start:0 ~max_prot:Prot.No_access;
  let failed = ref false in
  Vm.read_word vm ~task ~addr:0 (fun _ -> ());
  (try Engine.run engine with Failure _ -> failed := true);
  Alcotest.(check bool) "read blocked" true !failed

let test_terminate_object () =
  let engine, ids, vm = make_vm () in
  let task = Vm.create_task vm in
  let obj = map_fresh ~npages:4 vm ids task in
  run_write engine vm task 0 1;
  run_write engine vm task wpp 2;
  let before = Vm.resident_total vm in
  Vm.unmap vm ~task ~start:0;
  Vm.terminate_object vm obj.M.Vm_object.id;
  Alcotest.(check int) "frames released" (before - 2) (Vm.resident_total vm);
  Alcotest.(check bool) "object gone" true
    (Vm.find_object vm obj.M.Vm_object.id = None)

let test_terminate_managed_rejected () =
  let _engine, ids, vm = make_vm () in
  let oid = M.Ids.Alloc.fresh ids in
  ignore (Vm.create_object vm ~id:oid ~size_pages:4 ~temporary:false);
  Vm.set_manager vm oid (Some Emmi.null_manager);
  Alcotest.check_raises "managed object"
    (Invalid_argument "Vm.terminate_object: object is managed") (fun () ->
      Vm.terminate_object vm oid)

let () =
  Alcotest.run "machvm"
    [
      ( "local faults",
        [
          Alcotest.test_case "zero fill" `Quick test_zero_fill_read;
          Alcotest.test_case "write/read" `Quick test_write_then_read;
          Alcotest.test_case "fault accounting" `Quick test_fault_accounting;
          Alcotest.test_case "upgrade" `Quick test_read_then_write_upgrades;
          Alcotest.test_case "unmapped" `Quick test_unmapped_faults;
        ] );
      ( "symmetric copy",
        [ Alcotest.test_case "isolation" `Quick test_symmetric_copy_isolation ] );
      ( "asymmetric copy",
        [
          Alcotest.test_case "pull" `Quick test_asymmetric_copy_pull;
          Alcotest.test_case "push" `Quick test_asymmetric_copy_push;
          Alcotest.test_case "three generations" `Quick
            test_copy_chain_three_generations;
          Alcotest.test_case "multiple copies" `Quick
            test_multiple_copies_of_same_source;
        ] );
      ( "paging",
        [
          Alcotest.test_case "eviction preserves data" `Quick
            test_eviction_preserves_data;
          Alcotest.test_case "wired pages stay" `Quick test_eviction_skips_wired;
          Alcotest.test_case "accept respects memory" `Quick
            test_try_accept_page_respects_memory;
        ] );
      ( "vm calls",
        [
          Alcotest.test_case "unmap" `Quick test_unmap;
          Alcotest.test_case "unmap keeps others" `Quick
            test_unmap_keeps_other_entries;
          Alcotest.test_case "protect read-only" `Quick test_protect;
          Alcotest.test_case "protect none" `Quick test_protect_none_blocks_reads;
          Alcotest.test_case "terminate" `Quick test_terminate_object;
          Alcotest.test_case "terminate managed" `Quick
            test_terminate_managed_rejected;
        ] );
      ( "emmi",
        [
          Alcotest.test_case "managed read fault" `Quick test_managed_read_fault;
          Alcotest.test_case "managed upgrade" `Quick test_managed_upgrade;
          Alcotest.test_case "flush returns dirty" `Quick
            test_lock_request_flush_returns_dirty;
          Alcotest.test_case "downgrade" `Quick test_lock_request_downgrade;
          Alcotest.test_case "push not present" `Quick test_lock_not_present;
          Alcotest.test_case "write grant after eviction" `Quick
            test_write_grant_after_eviction;
          Alcotest.test_case "pull chain" `Quick test_pull_request_chain;
          Alcotest.test_case "pull ask shadow" `Quick test_pull_request_ask_shadow;
          Alcotest.test_case "supply copies" `Quick
            test_contents_is_copied_on_supply;
        ] );
    ]
