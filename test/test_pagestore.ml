(* Property and unit tests for the copy-on-write page store: snapshot
   immutability, checksum-cache consistency, zero-page interning, and
   aliasing safety through the pager and backing store. *)

module Contents = Asvm_machvm.Contents
module Backing = Asvm_machvm.Backing
module Engine = Asvm_simcore.Engine
module Disk = Asvm_pager.Disk
module Store_pager = Asvm_pager.Store_pager
module Config = Asvm_cluster.Config
module File_io = Asvm_workloads.File_io
module Metrics = Asvm_obs.Metrics

let wpp = 8

(* reference checksum: recomputed from the words every time, bypassing
   the memo — pins both the algorithm and the cache's consistency *)
let ref_checksum c =
  let n = Contents.words c in
  let acc = ref n in
  for i = 0 to n - 1 do
    acc := (!acc * 1000003) lxor Contents.get c i
  done;
  !acc

let image c = List.init (Contents.words c) (Contents.get c)

let apply_writes c ws = List.iter (fun (i, v) -> Contents.set c i v) ws

let gen_writes =
  QCheck.(small_list (pair (int_bound (wpp - 1)) (int_bound 1000)))

let prop_snapshot_immutable =
  QCheck.Test.make ~name:"snapshot is immutable under writer mutation"
    ~count:300
    QCheck.(pair gen_writes gen_writes)
    (fun (before, after) ->
      let src = Contents.zero ~words:wpp in
      apply_writes src before;
      let snap = Contents.snapshot src in
      let frozen = image snap in
      apply_writes src after;
      (* the snapshot still shows the image at snapshot time *)
      image snap = frozen
      (* and writing the snapshot does not leak into the source *)
      &&
      let src_now = image src in
      Contents.set snap 0 424242;
      image src = src_now)

let prop_checksum_cache =
  (* arbitrary interleaving of writes, snapshots and checksum calls:
     the memoized checksum must always equal a fresh recompute *)
  QCheck.Test.make ~name:"memoized checksum equals fresh recompute" ~count:300
    QCheck.(small_list (pair bool gen_writes))
    (fun script ->
      let src = Contents.zero ~words:wpp in
      let holders = ref [ src ] in
      List.for_all
        (fun (snap_first, ws) ->
          if snap_first then
            holders := Contents.snapshot (List.hd !holders) :: !holders;
          apply_writes (List.hd !holders) ws;
          List.for_all
            (fun c -> Contents.checksum c = ref_checksum c)
            !holders
          (* a second call must hit the cache and agree *)
          && List.for_all
               (fun c -> Contents.checksum c = ref_checksum c)
               !holders)
        script)

let prop_copy_equal =
  QCheck.Test.make ~name:"copy compares equal until diverged" ~count:300
    gen_writes
    (fun ws ->
      let a = Contents.zero ~words:wpp in
      apply_writes a ws;
      let b = Contents.copy a in
      Contents.equal a b
      && Contents.checksum a = Contents.checksum b
      &&
      (Contents.set b 0 (Contents.get a 0 + 1);
       not (Contents.equal a b)))

let test_zero_interned () =
  let a = Contents.zero ~words:wpp in
  let b = Contents.zero ~words:wpp in
  Alcotest.(check bool) "both zero" true (Contents.is_zero a && Contents.is_zero b);
  Alcotest.(check bool) "equal" true (Contents.equal a b);
  Alcotest.(check int) "same checksum" (Contents.checksum a) (Contents.checksum b);
  (* writing one zero page must not corrupt the interned singleton *)
  Contents.set a 3 7;
  Alcotest.(check bool) "written page no longer zero" false (Contents.is_zero a);
  Alcotest.(check bool) "sibling still zero" true (Contents.is_zero b);
  let c = Contents.zero ~words:wpp in
  Alcotest.(check bool) "fresh zero page unaffected" true (Contents.is_zero c);
  Alcotest.(check int) "zero word readable" 0 (Contents.get c 3)

let test_stats_accounting () =
  let s0 = Contents.stats () in
  let a = Contents.zero ~words:wpp in
  Contents.set a 0 1 (* materializes away from the interned zero page *);
  let s1 = Contents.stats () in
  Alcotest.(check bool) "write to zero page materializes" true
    (s1.Contents.cow_materializations > s0.Contents.cow_materializations);
  let b = Contents.snapshot a in
  let s2 = Contents.stats () in
  Alcotest.(check int) "snapshot counted"
    (s1.Contents.snapshots + 1)
    s2.Contents.snapshots;
  (* writing the shared buffer pays exactly one deferred copy *)
  Contents.set a 1 2;
  Contents.set a 2 3;
  let s3 = Contents.stats () in
  Alcotest.(check int) "one materialization per shared-buffer burst"
    (s2.Contents.cow_materializations + 1)
    s3.Contents.cow_materializations;
  Alcotest.(check int) "snapshot kept its image" 0 (Contents.get b 1);
  ignore (Contents.checksum b);
  let s4 = Contents.stats () in
  ignore (Contents.checksum b);
  let s5 = Contents.stats () in
  Alcotest.(check int) "second checksum hits the cache"
    (s4.Contents.checksum_cache_hits + 1)
    s5.Contents.checksum_cache_hits

let test_backing_isolates () =
  let b = Backing.in_memory () in
  let c = Contents.zero ~words:wpp in
  Contents.set c 2 42;
  b.Backing.store ~obj:1 ~page:0 ~contents:c ~k:ignore;
  (* mutating the caller's page after store must not reach the store *)
  Contents.set c 2 99;
  let got = ref None in
  b.Backing.fetch ~obj:1 ~page:0 ~k:(fun r -> got := r);
  (match !got with
  | Some v -> Alcotest.(check int) "stored image preserved" 42 (Contents.get v 2)
  | None -> Alcotest.fail "backing lost the page");
  (* mutating a fetched page must not corrupt the store *)
  (match !got with Some v -> Contents.set v 2 7 | None -> ());
  let again = ref None in
  b.Backing.fetch ~obj:1 ~page:0 ~k:(fun r -> again := r);
  match !again with
  | Some v -> Alcotest.(check int) "refetch unaffected" 42 (Contents.get v 2)
  | None -> Alcotest.fail "backing lost the page on refetch"

let test_store_pager_isolates () =
  let engine = Engine.create () in
  let disk = Disk.create engine Disk.default_config in
  let pager =
    Store_pager.create engine ~node:0 ~disk Store_pager.default_config
  in
  let c = Contents.zero ~words:wpp in
  Contents.set c 1 5;
  Store_pager.remember pager ~obj:3 ~page:0 ~contents:c;
  Contents.set c 1 6;
  let got = ref None in
  Store_pager.request pager ~obj:3 ~page:0 ~words:wpp (fun v -> got := Some v);
  Engine.run engine;
  (match !got with
  | Some v ->
    Alcotest.(check int) "pager kept the remembered image" 5 (Contents.get v 1);
    (* a supplied page is the requester's to write *)
    Contents.set v 1 8
  | None -> Alcotest.fail "no supply");
  let second = ref None in
  Store_pager.request pager ~obj:3 ~page:0 ~words:wpp (fun v ->
      second := Some v);
  Engine.run engine;
  match !second with
  | Some v ->
    Alcotest.(check int) "second supply unaffected by first writer" 5
      (Contents.get v 1)
  | None -> Alcotest.fail "no second supply"

let prop_pager_roundtrip =
  QCheck.Test.make ~name:"store_pager round-trips arbitrary images" ~count:50
    gen_writes
    (fun ws ->
      let engine = Engine.create () in
      let disk = Disk.create engine Disk.default_config in
      let pager =
        Store_pager.create engine ~node:0 ~disk Store_pager.default_config
      in
      let c = Contents.zero ~words:wpp in
      apply_writes c ws;
      let expect = image c in
      Store_pager.remember pager ~obj:1 ~page:0 ~contents:c;
      let got = ref None in
      Store_pager.request pager ~obj:1 ~page:0 ~words:wpp (fun v ->
          got := Some v);
      Engine.run engine;
      match !got with Some v -> image v = expect | None -> false)

(* Table 2's read-sharing cell: four nodes read one 1 MB file through
   the pager, so transfers are snapshots and writes after them are
   rare.  Copy on write pays off only if the run materializes far fewer
   pages than it snapshots (128 against 1,152). *)
let test_sharing_defers_copies () =
  let r = File_io.read_test ~mm:Config.Mm_asvm ~nodes:4 ~file_mb:1 () in
  let total name = Metrics.counter_total r.File_io.metrics name in
  let snapshots = total "contents.snapshots" in
  let materializations = total "contents.cow_materializations" in
  if materializations >= snapshots then
    Alcotest.failf "%d materializations for %d snapshots" materializations
      snapshots

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "pagestore"
    [
      ( "cow",
        [
          qtest prop_snapshot_immutable;
          qtest prop_checksum_cache;
          qtest prop_copy_equal;
          Alcotest.test_case "zero-page interning" `Quick test_zero_interned;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "read sharing defers copies" `Quick
            test_sharing_defers_copies;
        ] );
      ( "roundtrips",
        [
          Alcotest.test_case "backing store isolates" `Quick
            test_backing_isolates;
          Alcotest.test_case "store pager isolates" `Quick
            test_store_pager_isolates;
          qtest prop_pager_roundtrip;
        ] );
    ]
