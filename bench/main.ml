(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (section 4) and the DESIGN.md ablations, printing
   simulated results next to the published numbers.

   Run everything:      dune exec bench/main.exe
   One experiment:      dune exec bench/main.exe -- table1
   Quick mode:          dune exec bench/main.exe -- --quick table3
   Parallel cells:      dune exec bench/main.exe -- table3 --jobs 4
   Harness speed:       dune exec bench/main.exe -- selfbench
   Page-store bench:    dune exec bench/main.exe -- pagestore
   Chaos soak:          dune exec bench/main.exe -- chaos --seeds 10
   Serving SLO bench:   dune exec bench/main.exe -- serve
   Microbenchmarks:     dune exec bench/main.exe -- bechamel *)

module Config = Asvm_cluster.Config
module Fault_micro = Asvm_workloads.Fault_micro
module Copy_chain = Asvm_workloads.Copy_chain
module File_io = Asvm_workloads.File_io
module Em3d = Asvm_workloads.Em3d
module Stats = Asvm_simcore.Stats
module Metrics = Asvm_obs.Metrics
module Runner = Asvm_runner.Runner
module Json = Asvm_obs.Json

let pf = Format.printf

let header title =
  pf "@.=== %s ===@." title

let rule () = pf "%s@." (String.make 78 '-')

(* Write experiment [name]'s report to BENCH_<name>.json as one line,
   then read it back: a zero exit certifies the file is well-formed
   JSON. *)
let write_bench name json =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out file in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  let ic = open_in file in
  let contents = In_channel.input_all ic in
  close_in ic;
  (match Json.of_string (String.trim contents) with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "%s: %s is invalid: %s" name file e));
  pf "wrote %s@." file

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

let table1 ?jobs () =
  header "Table 1: page-fault latencies (ms) -- measured vs paper";
  let rows = Fault_micro.table1 ?jobs () in
  pf "%-52s %8s %8s | %8s %8s@." "fault type" "ASVM" "XMM" "ASVM'96" "XMM'96";
  rule ();
  List.iter2
    (fun (label, asvm, xmm) (_, pa, px) ->
      pf "%-52s %8.2f %8.2f | %8.2f %8.2f@." label asvm xmm pa px)
    rows Paper.table1;
  rule ()

(* With --metrics: the message-count columns of Table 1, read off the
   metric registry rather than eyeballed from traces. The paper's
   claim: an ASVM remote ownership transfer takes 3 messages (1 with
   contents); the same operation under XMM takes 5 (2 with contents). *)
let table1_messages () =
  header "Table 1 message counts (per measured fault, from the metric registry)";
  let rows =
    [
      Fault_micro.Write_fault { read_copies = 1 };
      Fault_micro.Write_fault { read_copies = 2 };
      Fault_micro.Write_upgrade { read_copies = 2 };
      Fault_micro.Read_fault { nth_reader = 1 };
      Fault_micro.Read_fault { nth_reader = 2 };
    ]
  in
  let count mm kind =
    let r = Fault_micro.measure_instrumented ~mm kind in
    let name =
      match mm with
      | Config.Mm_asvm -> "asvm.msgs.ownership_transfer"
      | Config.Mm_xmm -> "xmm.msgs.ownership_transfer"
    in
    let wire ls = List.assoc_opt "contents" ls = Some "wire" in
    ( Metrics.counter_total r.Fault_micro.fault_metrics name,
      Metrics.counter_total ~where:wire r.Fault_micro.fault_metrics name )
  in
  pf "%-52s %12s %12s@." "fault type" "ASVM" "XMM";
  pf "%-52s %12s %12s@." "" "msgs (wire)" "msgs (wire)";
  rule ();
  List.iter
    (fun kind ->
      let am, aw = count Config.Mm_asvm kind in
      let xm, xw = count Config.Mm_xmm kind in
      pf "%-52s %8d (%d) %8d (%d)@." (Fault_micro.describe kind) am aw xm xw)
    rows;
  rule ();
  pf "Paper section 3.3: write-access transfer is 3 messages / 1 with@.";
  pf "contents under ASVM, 5 / 2 under the XMM baseline.@."

(* ------------------------------------------------------------------ *)
(* Figure 10                                                          *)
(* ------------------------------------------------------------------ *)

let figure10 ?jobs () =
  header
    "Figure 10: write-fault latency (ms) vs number of nodes with read copies";
  let readers = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let pts = Fault_micro.figure10 ?jobs ~readers () in
  pf "%8s %12s %14s %12s %14s@." "readers" "ASVM write" "ASVM upgrade"
    "XMM write" "XMM upgrade";
  rule ();
  List.iter
    (fun (n, aw, au, xw, xu) ->
      let cell v = if Float.is_nan v then "      -" else Printf.sprintf "%7.2f" v in
      pf "%8d %12s %14s %12s %14s@." n (cell aw) (cell au) (cell xw) (cell xu))
    pts;
  rule ();
  let pick f = List.map (fun p -> let n, _, _, _, _ = p in (float_of_int n, f p)) pts in
  pf "%s@."
    (Ascii_plot.render ~x_label:"read copies" ~y_label:"latency (ms)"
       [
         {
           Ascii_plot.label = "ASVM write fault";
           marker = 'a';
           points = pick (fun (_, aw, _, _, _) -> aw);
         };
         {
           Ascii_plot.label = "ASVM write upgrade";
           marker = 'A';
           points = pick (fun (_, _, au, _, _) -> au);
         };
         {
           Ascii_plot.label = "XMM write fault";
           marker = 'x';
           points = pick (fun (_, _, _, xw, _) -> xw);
         };
         {
           Ascii_plot.label = "XMM write upgrade";
           marker = 'X';
           points = pick (fun (_, _, _, _, xu) -> xu);
         };
       ]);
  pf "Paper: ASVM grows ~0.1 ms/reader; XMM ~1 ms/reader (72.18 ms at 64).@."

(* ------------------------------------------------------------------ *)
(* Figure 11                                                          *)
(* ------------------------------------------------------------------ *)

let figure11 ?jobs () =
  header "Figure 11: inherited-memory fault latency vs copy-chain length";
  let chains = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let asvm, (alb, ala) = Copy_chain.figure11 ?jobs ~mm:Config.Mm_asvm ~chains () in
  let xmm, (xlb, xla) = Copy_chain.figure11 ?jobs ~mm:Config.Mm_xmm ~chains () in
  pf "%8s %14s %14s@." "chain" "ASVM (ms)" "XMM (ms)";
  rule ();
  List.iter2
    (fun (a : Copy_chain.result) (x : Copy_chain.result) ->
      pf "%8d %14.2f %14.2f@." a.chain a.mean_fault_ms x.mean_fault_ms)
    asvm xmm;
  rule ();
  pf "%s@."
    (Ascii_plot.render ~x_label:"copy-chain length" ~y_label:"fault latency (ms)"
       [
         {
           Ascii_plot.label = "ASVM";
           marker = 'a';
           points =
             List.map
               (fun (r : Copy_chain.result) ->
                 (float_of_int r.chain, r.mean_fault_ms))
               asvm;
         };
         {
           Ascii_plot.label = "XMM";
           marker = 'x';
           points =
             List.map
               (fun (r : Copy_chain.result) ->
                 (float_of_int r.chain, r.mean_fault_ms))
               xmm;
         };
       ]);
  let plb_a, pla_a = Paper.fig11_asvm and plb_x, pla_x = Paper.fig11_xmm in
  pf "Fit lb + n*la:  ASVM lb=%.2f la=%.2f (paper %.1f/%.2f)   XMM lb=%.2f la=%.2f (paper %.1f/%.1f)@."
    alb ala plb_a pla_a xlb xla plb_x pla_x

(* ------------------------------------------------------------------ *)
(* Table 2                                                            *)
(* ------------------------------------------------------------------ *)

let table2 ?jobs () =
  header "Table 2: mapped-file transfer rates (MB/s per node) -- 4 MB file";
  let counts = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let rows = File_io.table2 ?jobs ~node_counts:counts () in
  pf "%6s | %10s %10s %10s %10s | %s@." "nodes" "ASVM wr" "XMM wr" "ASVM rd"
    "XMM rd" "paper (aw/xw/ar/xr)";
  rule ();
  List.iter2
    (fun (n, aw, xw, ar, xr) (_, paw, pxw, par, pxr) ->
      pf "%6d | %10.2f %10.2f %10.2f %10.2f | %.2f/%.2f/%.2f/%.2f@." n aw xw ar
        xr paw pxw par pxr)
    rows Paper.table2;
  rule ();
  let series f = List.map (fun r -> let n, _, _, _, _ = r in (float_of_int n, f r)) rows in
  pf "Figure 13 (writes) and Figure 12 (reads), per-node MB/s vs nodes:@.";
  pf "%s@."
    (Ascii_plot.render ~log_y:true ~x_label:"nodes" ~y_label:"MB/s per node"
       [
         {
           Ascii_plot.label = "ASVM write";
           marker = 'w';
           points = series (fun (_, aw, _, _, _) -> aw);
         };
         {
           Ascii_plot.label = "XMM write";
           marker = 'v';
           points = series (fun (_, _, xw, _, _) -> xw);
         };
         {
           Ascii_plot.label = "ASVM read";
           marker = 'r';
           points = series (fun (_, _, _, ar, _) -> ar);
         };
         {
           Ascii_plot.label = "XMM read";
           marker = 's';
           points = series (fun (_, _, _, _, xr) -> xr);
         };
       ])

(* ------------------------------------------------------------------ *)
(* Table 3                                                            *)
(* ------------------------------------------------------------------ *)

let memory_pages_16mb = Asvm_machvm.Vm_config.default.memory_pages

let table3 ~iterations ?jobs () =
  header
    (Printf.sprintf
       "Table 3: EM3D execution times (seconds, %d iterations scaled to 100)"
       iterations);
  let scale = 100. /. float_of_int iterations in
  let cell_config ~mm ~cells ~nodes =
    if nodes = 1 then
      (* sequential runs used a large-memory node (the paper's footnote) *)
      Some (mm, Some (Em3d.data_pages ~cells + 64),
            { (Em3d.default_params ~cells ~nodes) with iterations })
    else if not (Em3d.fits ~cells ~nodes ~memory_pages_per_node:memory_pages_16mb)
    then None
    else Some (mm, None, { (Em3d.default_params ~cells ~nodes) with iterations })
  in
  (* flatten every fitting (cells, nodes, mm) cell of the table into one
     batch for the pool; non-fitting cells stay "**" and never run *)
  let keyed =
    List.concat_map
      (fun (cells, paper_rows) ->
        List.concat_map
          (fun (nodes, _, _) ->
            List.filter_map
              (fun mm ->
                Option.map
                  (fun cfg -> ((cells, nodes, mm), cfg))
                  (cell_config ~mm ~cells ~nodes))
              [ Config.Mm_asvm; Config.Mm_xmm ])
          paper_rows)
      Paper.table3
  in
  let results = Em3d.sweep ?jobs (List.map snd keyed) in
  let seconds = Hashtbl.create 64 in
  List.iter2
    (fun (key, _) (r : Em3d.result) ->
      Hashtbl.replace seconds key (r.seconds *. scale))
    keyed results;
  List.iter
    (fun (cells, paper_rows) ->
      pf "@.EM3D %d cells%s@." cells
        (if cells >= 64000 then "  (** = data set exceeds combined memory)"
         else "");
      pf "%6s | %12s %12s | %12s %12s@." "nodes" "ASVM" "XMM" "ASVM'96" "XMM'96";
      rule ();
      List.iter
        (fun (nodes, pa, px) ->
          let cell = function
            | Some s -> Printf.sprintf "%10.1f" s
            | None -> "        **"
          in
          let ours mm = Hashtbl.find_opt seconds (cells, nodes, mm) in
          pf "%6d | %12s %12s | %12s %12s@." nodes
            (cell (ours Config.Mm_asvm))
            (cell (ours Config.Mm_xmm))
            (cell pa) (cell px))
        paper_rows;
      rule ())
    Paper.table3

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md A1-A3)                                        *)
(* ------------------------------------------------------------------ *)

let ablation_forwarding () =
  header
    "Ablation A1: forwarding strategies (ownership migrating around 24 nodes)";
  let measure ~forwarding =
    (* ownership of one hot page ping-pongs around the machine; nodes
       that were invalidated hold a dynamic hint pointing straight at
       the new owner, which static forwarding cannot exploit *)
    let nodes = 24 in
    let config = Config.default ~nodes in
    let config = { config with asvm = { config.asvm with forwarding } } in
    let cl = Asvm_cluster.Cluster.create config in
    let sharers = List.init nodes Fun.id in
    let obj =
      Asvm_cluster.Cluster.create_shared_object cl ~size_pages:4 ~sharers
        ~forwarding ()
    in
    let tasks =
      Array.init nodes (fun node ->
          let t = Asvm_cluster.Cluster.create_task cl ~node in
          Asvm_cluster.Cluster.map cl ~task:t ~obj ~start:0 ~npages:4
            ~inherit_:Asvm_machvm.Address_map.Inherit_share;
          t)
    in
    let sync op =
      let ok = ref false in
      op (fun () -> ok := true);
      Asvm_cluster.Cluster.run cl;
      assert !ok
    in
    let tally = Stats.Tally.create () in
    let rounds = 40 in
    for r = 0 to rounds - 1 do
      let writer = tasks.((r * 7) mod nodes) in
      let reader = tasks.(((r * 7) + 3) mod nodes) in
      let t0 = Asvm_cluster.Cluster.now cl in
      sync (fun k ->
          Asvm_cluster.Cluster.touch cl ~task:reader ~vpage:0
            ~want:Asvm_machvm.Prot.Read_only k);
      sync (fun k ->
          Asvm_cluster.Cluster.touch cl ~task:writer ~vpage:0
            ~want:Asvm_machvm.Prot.Read_write k);
      Stats.Tally.add tally (Asvm_cluster.Cluster.now cl -. t0)
    done;
    let msgs = Asvm_cluster.Cluster.protocol_messages cl in
    (Stats.Tally.mean tally, msgs)
  in
  pf "%-24s %20s %16s@." "forwarding" "per-round mean (ms)" "total messages";
  rule ();
  List.iter
    (fun (label, fwd) ->
      let latency, msgs = measure ~forwarding:fwd in
      pf "%-24s %20.2f %16d@." label latency msgs)
    [
      ("dynamic+static+global", { Asvm_core.Asvm.dynamic = true; static = true });
      ("static+global", { Asvm_core.Asvm.dynamic = false; static = true });
      ("dynamic+global", { Asvm_core.Asvm.dynamic = true; static = false });
      ("global only", { Asvm_core.Asvm.dynamic = false; static = false });
    ];
  rule ();
  pf "Any hint layer beats global-only (every miss becomes a ring sweep,@.";
  pf "3-4x the messages). With ownership migrating every round, dynamic@.";
  pf "hints are often one transfer stale and cost an extra forward over@.";
  pf "the static manager's serialized view — why ASVM backs dynamic with@.";
  pf "static rather than relying on either alone (paper 3.4).@."

let ablation_paging ~iterations () =
  header
    "Ablation A2: internode paging on/off (EM3D 256k cells, 8 nodes, tight \
     memory)";
  (* per-node memory covers the node's own pages but not its boundary
     windows: every iteration evicts, so where evicted pages go matters *)
  let cells = 256_000 in
  let memory_pages = (Em3d.data_pages ~cells / 8) + 8 in
  let run ~internode_paging =
    let r =
      Em3d.run ~mm:Config.Mm_asvm ~internode_paging ~memory_pages
        {
          (Em3d.default_params ~cells ~nodes:8) with
          iterations = max 5 (iterations / 10);
        }
    in
    r.seconds
  in
  let on = run ~internode_paging:true in
  let off = run ~internode_paging:false in
  pf "internode paging ON : %8.1f s   (evicted pages move to other nodes)@." on;
  pf "internode paging OFF: %8.1f s   (evictions fall through to the disk)@."
    off;
  rule ()

let ablation_readerlist () =
  header "Ablation A3: reader-list balancing via ownership hand-off";
  (* one page read by many nodes; evicting the owner hands ownership to
     a reader without moving contents (paper section 5, Scalability) *)
  let nodes = 16 in
  let cl = Asvm_cluster.Cluster.create (Config.default ~nodes) in
  let sharers = List.init nodes Fun.id in
  let obj =
    Asvm_cluster.Cluster.create_shared_object cl ~size_pages:2 ~sharers ()
  in
  let tasks =
    Array.init nodes (fun node ->
        let t = Asvm_cluster.Cluster.create_task cl ~node in
        Asvm_cluster.Cluster.map cl ~task:t ~obj ~start:0 ~npages:2
          ~inherit_:Asvm_machvm.Address_map.Inherit_share;
        t)
  in
  let sync op =
    let ok = ref false in
    op (fun () -> ok := true);
    Asvm_cluster.Cluster.run cl;
    assert !ok
  in
  sync (fun k ->
      Asvm_cluster.Cluster.write_word cl ~task:tasks.(0) ~addr:0 ~value:1 k);
  for n = 1 to nodes - 1 do
    sync (fun k ->
        Asvm_cluster.Cluster.touch cl ~task:tasks.(n) ~vpage:0
          ~want:Asvm_machvm.Prot.Read_only k)
  done;
  let a =
    match Asvm_cluster.Cluster.backend cl with
    | `Asvm a -> a
    | `Xmm _ -> assert false
  in
  let owner_before =
    List.find
      (fun n -> Asvm_core.Asvm.is_owner a ~node:n ~obj ~page:0)
      (List.init nodes Fun.id)
  in
  (* evict the page at the owner: ownership must migrate to a reader
     with no page transfer *)
  let vm = Asvm_cluster.Cluster.node_vm cl owner_before in
  ignore (Asvm_machvm.Vm.evict_one vm);
  Asvm_cluster.Cluster.run cl;
  let owner_after =
    List.find_opt
      (fun n -> Asvm_core.Asvm.is_owner a ~node:n ~obj ~page:0)
      (List.init nodes Fun.id)
  in
  let c = Asvm_core.Asvm.counters a in
  pf "owner before eviction: node %d@." owner_before;
  (match owner_after with
  | Some n -> pf "owner after eviction : node %d (reader hand-off)@." n
  | None -> pf "owner after eviction : none (page at pager)@.");
  pf "reader hand-offs: %d, page transfers: %d, pager write-backs: %d@."
    (Stats.Counters.get c "pageout.reader_handoffs")
    (Stats.Counters.get c "pageout.internode")
    (Stats.Counters.get c "pageout.to_pager");
  rule ()

let ablation_memory () =
  header
    "Ablation A5: manager memory footprint (design rule 'limited memory \
     requirements')";
  (* a large, sparsely used shared object: XMM's manager pays for every
     page on every node; ASVM pays only for what is resident *)
  let nodes = 32 in
  let pages = 4096 (* a 32 MB object *) in
  let touched = 64 in
  let run mm =
    let cl = Asvm_cluster.Cluster.create (Config.with_mm (Config.default ~nodes) mm) in
    let sharers = List.init nodes Fun.id in
    let obj =
      Asvm_cluster.Cluster.create_shared_object cl ~size_pages:pages ~sharers ()
    in
    let tasks =
      Array.init nodes (fun node ->
          let t = Asvm_cluster.Cluster.create_task cl ~node in
          Asvm_cluster.Cluster.map cl ~task:t ~obj ~start:0 ~npages:pages
            ~inherit_:Asvm_machvm.Address_map.Inherit_share;
          t)
    in
    (* each node touches a small disjoint slice *)
    let pending = ref 0 in
    Array.iteri
      (fun n task ->
        for j = 0 to (touched / nodes) - 1 do
          incr pending;
          Asvm_cluster.Cluster.write_word cl ~task
            ~addr:(((n * (touched / nodes)) + j) * 16)
            ~value:1
            (fun () -> decr pending)
        done)
      tasks;
    Asvm_cluster.Cluster.run cl;
    assert (!pending = 0);
    match Asvm_cluster.Cluster.backend cl with
    | `Asvm a ->
      let per_node =
        List.map (fun n -> Asvm_core.Asvm.state_bytes a ~node:n ~obj) sharers
      in
      let total = List.fold_left ( + ) 0 per_node in
      let mx = List.fold_left max 0 per_node in
      (total, mx)
    | `Xmm x ->
      let total = Asvm_xmm.Xmm.state_bytes x ~obj in
      (total, total)
  in
  let asvm_total, asvm_max = run Config.Mm_asvm in
  let xmm_total, xmm_max = run Config.Mm_xmm in
  pf "32 MB object (4096 pages) shared by 32 nodes, 64 pages actually used:@.";
  pf "  XMM  centralized manager : %7d bytes total, %7d on one node@."
    xmm_total xmm_max;
  pf "  ASVM distributed state   : %7d bytes total, %7d max per node@."
    asvm_total asvm_max;
  rule ();
  pf "XMM's matrix costs pages x nodes regardless of use (the paper's@.";
  pf "crash scenario for large sparse address spaces); ASVM's state is@.";
  pf "tied to resident pages plus bounded hint caches.@."

let ablation_striping () =
  header
    "Ablation A4 (section 6 extension): file striping over multiple pagers";
  pf "%8s %14s %14s@." "stripes" "write MB/s" "read MB/s";
  rule ();
  List.iter
    (fun stripes ->
      let w =
        (File_io.write_test ~mm:Config.Mm_asvm ~nodes:16 ~file_mb:4 ~stripes ())
          .File_io.per_node_mb_s
      in
      let r =
        (File_io.read_test ~mm:Config.Mm_asvm ~nodes:16 ~file_mb:4 ~stripes ())
          .File_io.per_node_mb_s
      in
      pf "%8d %14.2f %14.2f@." stripes w r)
    [ 1; 2; 4; 8 ];
  rule ();
  pf "One pager is the write ceiling of Table 2; striping the file over@.";
  pf "several I/O nodes raises it — the PFS/UFS merger of section 6.@."

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  header "Bechamel microbenchmarks (wall-clock cost of the simulator itself)";
  let open Bechamel in
  let open Toolkit in
  let stage f = Staged.stage f in
  let tests =
    Test.make_grouped ~name:"asvm"
      [
        Test.make ~name:"event_queue/1k add+pop"
          (stage (fun () ->
               let q = Asvm_simcore.Event_queue.create () in
               for i = 0 to 999 do
                 Asvm_simcore.Event_queue.add q
                   ~time:(float_of_int ((i * 7919) mod 1000))
                   ~seq:i ignore
               done;
               while Asvm_simcore.Event_queue.pop q <> None do
                 ()
               done));
        Test.make ~name:"hint_cache/1k put+find"
          (stage (fun () ->
               let c = Asvm_core.Hint_cache.create ~capacity:256 in
               for i = 0 to 999 do
                 Asvm_core.Hint_cache.put c ~page:(i mod 512) i;
                 ignore (Asvm_core.Hint_cache.find c ~page:(i mod 512))
               done));
        Test.make ~name:"table1/one ASVM write fault"
          (stage (fun () ->
               ignore
                 (Fault_micro.measure ~nodes:8 ~mm:Config.Mm_asvm
                    (Fault_micro.Write_fault { read_copies = 2 }))));
        Test.make ~name:"figure10/one upgrade fault"
          (stage (fun () ->
               ignore
                 (Fault_micro.measure ~nodes:8 ~mm:Config.Mm_asvm
                    (Fault_micro.Write_upgrade { read_copies = 2 }))));
        Test.make ~name:"figure11/chain of 3"
          (stage (fun () ->
               ignore
                 (Copy_chain.measure ~mm:Config.Mm_asvm ~chain:3 ~pages:4 ())));
        Test.make ~name:"table2/4-node 1MB file read"
          (stage (fun () ->
               ignore
                 (File_io.read_test ~mm:Config.Mm_asvm ~nodes:4 ~file_mb:1 ())));
        Test.make ~name:"table3/small EM3D"
          (stage (fun () ->
               ignore
                 (Em3d.run ~mm:Config.Mm_asvm
                    { cells = 8000; nodes = 4; iterations = 5; seed = 7 })));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances results in
  (match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> pf "no results@."
  | Some per_test ->
    let rows =
      Hashtbl.fold (fun name o acc -> (name, o) :: acc) per_test []
      |> List.sort compare
    in
    pf "%-44s %16s@." "benchmark" "time/run";
    rule ();
    List.iter
      (fun (name, o) ->
        match Analyze.OLS.estimates o with
        | Some (ns :: _) ->
          if ns > 1e6 then pf "%-44s %13.3f ms@." name (ns /. 1e6)
          else if ns > 1e3 then pf "%-44s %13.3f us@." name (ns /. 1e3)
          else pf "%-44s %13.1f ns@." name ns
        | Some [] | None -> pf "%-44s %16s@." name "n/a")
      rows);
  rule ()

(* ------------------------------------------------------------------ *)
(* Selfbench: wall-clock speed of the harness itself                  *)
(* ------------------------------------------------------------------ *)

(* How fast does the simulator regenerate the paper's numbers?  A fixed
   batch of representative cells (one per table/figure family) runs
   once sequentially and once on the pool; per-cell wall clock, total
   events/second (off the engine.events gauge each cell's snapshot
   carries) and the speedup go to stdout and BENCH_selfbench.json.
   Wall clock is Unix.gettimeofday: Sys.time sums CPU across domains
   and would hide any parallel speedup. *)

let selfbench_cells ~quick =
  let em3d_cells = if quick then 8_000 else 32_000 in
  let em3d_iters = if quick then 3 else 10 in
  let file_mb = if quick then 1 else 4 in
  let chain = if quick then 4 else 8 in
  let fault label mm kind =
    ( label,
      fun () ->
        (Fault_micro.measure_instrumented ~mm kind).Fault_micro.run_metrics )
  in
  let em3d label mm =
    ( label,
      fun () ->
        (Em3d.run ~mm
           {
             (Em3d.default_params ~cells:em3d_cells ~nodes:8) with
             iterations = em3d_iters;
           })
          .Em3d.metrics )
  in
  [
    fault "table1/asvm_write_fault" Config.Mm_asvm
      (Fault_micro.Write_fault { read_copies = 2 });
    fault "table1/xmm_write_fault" Config.Mm_xmm
      (Fault_micro.Write_fault { read_copies = 2 });
    fault "table1/asvm_read_fault" Config.Mm_asvm
      (Fault_micro.Read_fault { nth_reader = 2 });
    fault "table1/xmm_read_fault" Config.Mm_xmm
      (Fault_micro.Read_fault { nth_reader = 2 });
    ( "figure11/asvm_chain",
      fun () ->
        (Copy_chain.measure ~mm:Config.Mm_asvm ~chain ()).Copy_chain.metrics );
    ( "figure11/xmm_chain",
      fun () ->
        (Copy_chain.measure ~mm:Config.Mm_xmm ~chain ()).Copy_chain.metrics );
    ( "table2/asvm_read_16",
      fun () ->
        (File_io.read_test ~mm:Config.Mm_asvm ~nodes:16 ~file_mb ())
          .File_io.metrics );
    ( "table2/xmm_write_16",
      fun () ->
        (File_io.write_test ~mm:Config.Mm_xmm ~nodes:16 ~file_mb ())
          .File_io.metrics );
    em3d "table3/asvm_em3d" Config.Mm_asvm;
    em3d "table3/xmm_em3d" Config.Mm_xmm;
  ]

let engine_events snap =
  match Metrics.find snap "engine.events" [] with
  | Some (Metrics.Gauge_v v) -> int_of_float v
  | _ -> 0

(* Per-cell allocation accounting rides along with the wall clock:
   [Gc.quick_stat] counters are domain-local in OCaml 5 and each cell
   runs entirely inside one pool domain, so the deltas isolate the
   cell. minor/promoted words per event is the tracked number — it is
   host-independent, unlike wall clock. *)
type selfbench_row = {
  sb_name : string;
  sb_events : int;
  sb_wall : float;
  sb_minor : float;  (* minor words allocated by the cell *)
  sb_promoted : float;
}

let selfbench_run ~jobs cells =
  let t0 = Unix.gettimeofday () in
  let rows =
    Runner.run ~jobs
      (List.map
         (fun (name, f) () ->
           let c0 = Unix.gettimeofday () in
           (* Gc.minor_words reads the allocation pointer exactly;
              quick_stat's copy lags until the next minor collection *)
           let m0 = Gc.minor_words () in
           let g0 = Gc.quick_stat () in
           let snap = f () in
           let g1 = Gc.quick_stat () in
           {
             sb_name = name;
             sb_events = engine_events snap;
             sb_wall = Unix.gettimeofday () -. c0;
             sb_minor = Gc.minor_words () -. m0;
             sb_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
           })
         cells)
  in
  (Unix.gettimeofday () -. t0, rows)

let selfbench ~quick ?jobs () =
  header "Selfbench: harness wall-clock speed, sequential vs parallel";
  let cells = selfbench_cells ~quick in
  let jobs = match jobs with Some j -> j | None -> Runner.default_jobs () in
  let seq_wall, seq_rows = selfbench_run ~jobs:1 cells in
  let par_wall, par_rows = selfbench_run ~jobs cells in
  let events rows = List.fold_left (fun acc r -> acc + r.sb_events) 0 rows in
  let total_events = events seq_rows in
  (* a free determinism check: both runs simulated the same events *)
  if events par_rows <> total_events then
    failwith "selfbench: parallel run simulated a different event count";
  let rate wall = float_of_int total_events /. wall in
  pf "%-28s %12s %12s %14s %12s@." "cell" "events" "wall (s)" "minor w/ev"
    "promoted w/ev";
  rule ();
  List.iter
    (fun r ->
      let per v = if r.sb_events > 0 then v /. float_of_int r.sb_events else 0. in
      pf "%-28s %12d %12.3f %14.1f %12.2f@." r.sb_name r.sb_events r.sb_wall
        (per r.sb_minor) (per r.sb_promoted))
    seq_rows;
  rule ();
  let cores = Runner.default_jobs () in
  let speedup = seq_wall /. par_wall in
  pf "sequential (jobs=1): %8.3f s   %12.0f events/s@." seq_wall
    (rate seq_wall);
  pf "parallel   (jobs=%d): %8.3f s   %12.0f events/s@." jobs par_wall
    (rate par_wall);
  pf "speedup %.2fx with %d jobs (%d recommended domains on this host)@."
    speedup jobs cores;
  let cell_json r =
    Json.Obj
      [
        ("name", Json.String r.sb_name);
        ("events", Json.Int r.sb_events);
        ("wall_s", Json.Float r.sb_wall);
        ("minor_words", Json.Float r.sb_minor);
        ("promoted_words", Json.Float r.sb_promoted);
        ( "minor_words_per_event",
          Json.Float
            (if r.sb_events > 0 then r.sb_minor /. float_of_int r.sb_events
             else 0.) );
      ]
  in
  let run_json ~jobs ~wall rows =
    Json.Obj
      [
        ("jobs", Json.Int jobs);
        ("wall_s", Json.Float wall);
        ("events_per_s", Json.Float (rate wall));
        ("cells", Json.List (List.map cell_json rows));
      ]
  in
  let json =
    Json.Obj
      [
        ("schema", Json.String "asvm.selfbench/v1");
        ("quick", Json.Bool quick);
        ("cores", Json.Int cores);
        ("total_events", Json.Int total_events);
        ("sequential", run_json ~jobs:1 ~wall:seq_wall seq_rows);
        ("parallel", run_json ~jobs ~wall:par_wall par_rows);
        ("speedup", Json.Float speedup);
      ]
  in
  write_bench "selfbench" json

(* ------------------------------------------------------------------ *)
(* Pagestore microbench (BENCH_pagestore.json)                        *)
(* ------------------------------------------------------------------ *)

(* Eager-vs-COW on the snapshot-heavy pattern the simulator actually
   executes: pages are transferred (snapshotted) and audited
   (checksummed) far more often than they are written afterwards. The
   eager baseline re-implements the pre-COW page store — a plain int
   array, a full word copy per transfer, a full checksum per audit —
   so the speedup is the cost this PR removed. A second section runs
   the Table 2 read-sharing workload and reads the contents.* counters
   off its registry snapshot: COW only pays off if materializations
   stay well below snapshots on real protocol traffic. *)

let eager_checksum a =
  let acc = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    acc := (!acc * 1000003) lxor a.(i)
  done;
  !acc

let pagestore ~quick () =
  let module C = Asvm_machvm.Contents in
  header "pagestore: eager deep-copy vs COW page snapshots";
  let words = 1024 (* the 8 KB page at 8-byte words *) in
  let pages = if quick then 32 else 128 in
  let snaps = if quick then 64 else 256 in
  let audits = 2 in
  let reps = if quick then 3 else 5 in
  (* the two implementations must agree on the page image *)
  let probe = C.zero ~words in
  C.set probe 0 42;
  let probe_eager = Array.make words 0 in
  probe_eager.(0) <- 42;
  if C.checksum probe <> eager_checksum probe_eager then
    failwith "pagestore: eager and COW checksums disagree";
  let sink = ref 0 in
  let eager_round () =
    for _p = 1 to pages do
      let src = Array.make words 0 in
      src.(0) <- 42;
      src.(words - 1) <- 7;
      for _s = 1 to snaps do
        let snap = Array.copy src in
        for _a = 1 to audits do
          sink := !sink lxor eager_checksum snap
        done
      done;
      (* writer mutates after the transfers went out *)
      src.(1) <- 9
    done
  in
  let cow_round () =
    for _p = 1 to pages do
      let src = C.zero ~words in
      C.set src 0 42;
      C.set src (words - 1) 7;
      for _s = 1 to snaps do
        let snap = C.snapshot src in
        for _a = 1 to audits do
          sink := !sink lxor C.checksum snap
        done
      done;
      C.set src 1 9
    done
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  let eager_s = time eager_round in
  let cow_s = time cow_round in
  let speedup = eager_s /. cow_s in
  let transfers = pages * snaps * reps in
  pf "%d pages x %d snapshots x %d audits, %d reps (%d transfers):@." pages
    snaps audits reps transfers;
  pf "  eager (copy + full checksum): %10.4f s@." eager_s;
  pf "  COW   (alias + memoized sum): %10.4f s@." cow_s;
  pf "  speedup: %.2fx@." speedup;
  (* Table 2 sharing workload: many nodes read one file through the
     pager; transfers are all snapshots, writes are rare *)
  let nodes = if quick then 4 else 16 in
  let r = File_io.read_test ~mm:Config.Mm_asvm ~nodes ~file_mb:1 () in
  let total name = Metrics.counter_total r.File_io.metrics name in
  let t2_snapshots = total "contents.snapshots" in
  let t2_cow = total "contents.cow_materializations" in
  let t2_hits = total "contents.checksum_cache_hits" in
  rule ();
  pf "table2 read sharing (%d nodes, 1 MB file), contents.* counters:@." nodes;
  pf "  snapshots: %d   cow_materializations: %d   checksum_cache_hits: %d@."
    t2_snapshots t2_cow t2_hits;
  let json =
    Json.Obj
      [
        ("schema", Json.String "asvm.pagestore/v1");
        ("quick", Json.Bool quick);
        ("words", Json.Int words);
        ("pages", Json.Int pages);
        ("snapshots_per_page", Json.Int snaps);
        ("audits_per_snapshot", Json.Int audits);
        ("reps", Json.Int reps);
        ("eager_s", Json.Float eager_s);
        ("cow_s", Json.Float cow_s);
        ("speedup", Json.Float speedup);
        ( "table2",
          Json.Obj
            [
              ("nodes", Json.Int nodes);
              ("snapshots", Json.Int t2_snapshots);
              ("cow_materializations", Json.Int t2_cow);
              ("checksum_cache_hits", Json.Int t2_hits);
              ("cow_lt_snapshots", Json.Bool (t2_cow < t2_snapshots));
            ] );
      ]
  in
  write_bench "pagestore" json;
  if speedup < 1.3 then
    failwith
      (Printf.sprintf "pagestore: COW speedup %.2fx below the 1.3x floor"
         speedup);
  if t2_cow >= t2_snapshots then
    failwith
      "pagestore: cow_materializations not below snapshots on the table2 \
       sharing workload"

(* ------------------------------------------------------------------ *)
(* Chaos soak (BENCH_chaos.json)                                      *)
(* ------------------------------------------------------------------ *)

(* Every workload under seeded fault plans with invariant checks after
   quiesce, the zero-fault cost of the reliable-STS layer, and the
   rolling k-of-n crash/rejoin cells with their recovery-latency
   percentiles (docs/AVAILABILITY.md).  The report goes to
   BENCH_chaos.json; a violation or a lost write fails the run (and CI)
   with the (seed, plan) pair that reproduces it. *)
let chaos ~quick ~seeds ?jobs () =
  let module Soak = Asvm_chaos.Soak in
  header "chaos soak (fault injection + invariant checking)";
  let r = Soak.run ?jobs ~seeds ~quick () in
  Soak.pp_report Format.std_formatter r;
  Format.pp_print_flush Format.std_formatter ();
  write_bench "chaos" (Soak.to_json r);
  if r.Soak.total_violations > 0 || r.Soak.incomplete > 0 || r.Soak.lost_writes > 0
  then
    failwith
      "chaos: invariant violations, lost writes or incomplete runs — see \
       BENCH_chaos.json"

(* ------------------------------------------------------------------ *)
(* Serving SLO bench (BENCH_serve.json)                               *)
(* ------------------------------------------------------------------ *)

(* Open-loop serving cells: protocol x arrival process x
   oversubscription ratio, every request's latency into exact-percentile
   histograms, plus one chaos-composed cell (serve under a lossy fault
   plan with the invariant checker after drain).  The JSON is free of
   wall-clock fields, and every cell is a pure function of the fixed
   seed, so the file is byte-identical at any --jobs — the determinism
   check CI leans on. *)

module Serve = Asvm_serve.Serve
module Arrival = Asvm_serve.Arrival

let serve_cell_json ~mm ~process ~oversub ~violations (r : Serve.result) =
  let ordered = r.Serve.p50_ms <= r.p99_ms && r.p99_ms <= r.p999_ms in
  let merge_exact =
    r.Serve.merged_count = r.registry_count
    && r.merged_count = r.completions
  in
  Json.Obj
    [
      ("mm", Json.String (Config.mm_name mm));
      ("arrival", Json.String (Arrival.process_name process));
      ("oversub", Json.Float oversub);
      ("requests", Json.Int r.Serve.requests);
      ("completions", Json.Int r.completions);
      ("sim_ms", Json.Float r.sim_ms);
      ("goodput_rps", Json.Float r.goodput_rps);
      ("mean_ms", Json.Float r.mean_ms);
      ("p50_ms", Json.Float r.p50_ms);
      ("p99_ms", Json.Float r.p99_ms);
      ("p999_ms", Json.Float r.p999_ms);
      ("max_ms", Json.Float r.max_ms);
      ("evictions", Json.Int r.evictions);
      ("pageout_runs", Json.Int r.pageout_runs);
      ("pageout_evictions", Json.Int r.pageout_evictions);
      ("pager_stores", Json.Int r.pager_stores);
      ("reader_handoffs", Json.Int r.reader_handoffs);
      ("internode_pageouts", Json.Int r.internode_pageouts);
      ("pageouts_to_pager", Json.Int r.pageouts_to_pager);
      ( "queue_depth",
        Json.List
          (List.map
             (fun (t, d) ->
               Json.Obj [ ("t_ms", Json.Float t); ("depth", Json.Int d) ])
             r.queue_depth) );
      ("percentiles_ordered", Json.Bool ordered);
      ("merge_exact", Json.Bool merge_exact);
      ( "violations",
        match violations with
        | None -> Json.Null
        | Some vs -> Json.List (List.map (fun v -> Json.String v) vs) );
    ]

let serve ~quick ?jobs () =
  let module Plan = Asvm_chaos.Plan in
  let module Invariants = Asvm_chaos.Invariants in
  let module Sts = Asvm_sts.Sts in
  header "serve: open-loop serving SLO under memory oversubscription";
  let rate = if quick then 500. else 1000. in
  let params ~process ~oversub =
    {
      Serve.default_params with
      Serve.duration_ms = (if quick then 300. else 1200.);
      process;
      oversub;
      queue_samples = 16;
    }
  in
  let arrivals =
    [
      Arrival.Poisson { rate_per_s = rate };
      Arrival.Bursty
        {
          on_rate_per_s = rate *. 2.5;
          off_rate_per_s = rate /. 4.;
          on_ms = 40.;
          off_ms = 60.;
        };
    ]
  in
  let oversubs = [ 1.5; 3.0 ] in
  let cells =
    List.concat_map
      (fun mm ->
        List.concat_map
          (fun process ->
            List.map (fun oversub -> (mm, process, oversub)) oversubs)
          arrivals)
      [ Config.Mm_asvm; Config.Mm_xmm ]
  in
  let results =
    Runner.map ?jobs
      (fun (mm, process, oversub) -> Serve.run ~mm (params ~process ~oversub))
      cells
  in
  (* chaos-composed cell: the same serving load under a lossy fault plan
     with the reliable STS absorbing the losses; the invariant checker
     runs after drain and must stay green *)
  let chaos_process = List.hd arrivals in
  let chaos_oversub = List.hd oversubs in
  let plan = Plan.lossy ~p:0.02 ~seed:1096 () in
  let chaos_violations = ref [] in
  let chaos_result =
    Serve.run ~mm:Config.Mm_asvm
      ~tweak:(fun (c : Config.t) ->
        let sts =
          {
            c.Config.asvm.Asvm_core.Asvm.sts with
            Sts.interposer = Some (Plan.sts_interposer plan);
            reliability = Some Sts.default_reliability;
          }
        in
        {
          c with
          Config.net_interposer = Some (Plan.net_interposer plan);
          asvm = { c.Config.asvm with sts };
        })
      ~inspect:(fun cl -> chaos_violations := Invariants.check cl)
      (params ~process:chaos_process ~oversub:chaos_oversub)
  in
  pf "%6s %9s %9s | %9s %9s %9s %9s | %9s %9s@." "mm" "arrival" "oversub"
    "p50 (ms)" "p99 (ms)" "p999 (ms)" "rps" "evict" "daemon";
  rule ();
  List.iter2
    (fun (mm, process, oversub) (r : Serve.result) ->
      pf "%6s %9s %9.1f | %9.2f %9.2f %9.2f %9.0f | %9d %9d@."
        (Config.mm_name mm)
        (Arrival.process_name process)
        oversub r.Serve.p50_ms r.p99_ms r.p999_ms r.goodput_rps r.evictions
        r.pageout_evictions)
    cells results;
  rule ();
  pf "chaos-composed cell (%s, oversub %.1f, plan %s): %d violations@."
    (Arrival.process_name chaos_process)
    chaos_oversub (Plan.describe plan)
    (List.length !chaos_violations);
  (* latency CDFs for the highest-pressure Poisson cells *)
  let cdf_of mm =
    let rec pick cs rs =
      match (cs, rs) with
      | (m, Arrival.Poisson _, o) :: _, (r : Serve.result) :: _
        when m = mm && o = List.fold_left max 0. oversubs ->
        Some r
      | _ :: cs, _ :: rs -> pick cs rs
      | _ -> None
    in
    pick cells results
  in
  (match (cdf_of Config.Mm_asvm, cdf_of Config.Mm_xmm) with
  | Some a, Some x ->
    pf "%s@."
      (Ascii_plot.render ~x_label:"latency (ms)" ~y_label:"% of requests"
         [
           Ascii_plot.cdf ~label:"ASVM" ~marker:'a' a.Serve.latency_values;
           Ascii_plot.cdf ~label:"XMM" ~marker:'x' x.Serve.latency_values;
         ])
  | _ -> ());
  let json =
    Json.Obj
      [
        ("schema", Json.String "asvm.serve/v1");
        ("quick", Json.Bool quick);
        ("seed", Json.Int Serve.default_params.Serve.seed);
        ("rate_per_s", Json.Float rate);
        ( "cells",
          Json.List
            (List.map2
               (fun (mm, process, oversub) r ->
                 serve_cell_json ~mm ~process ~oversub ~violations:None r)
               cells results) );
        ( "chaos_cell",
          serve_cell_json ~mm:Config.Mm_asvm ~process:chaos_process
            ~oversub:chaos_oversub
            ~violations:(Some !chaos_violations)
            chaos_result );
      ]
  in
  write_bench "serve" json;
  let all_results = (Config.Mm_asvm, chaos_result) :: List.combine (List.map (fun (m, _, _) -> m) cells) results in
  List.iter
    (fun (_, (r : Serve.result)) ->
      if r.Serve.completions <> r.requests then
        failwith "serve: open loop failed to drain (completions <> requests)";
      if not (r.Serve.p50_ms <= r.p99_ms && r.p99_ms <= r.p999_ms) then
        failwith "serve: percentiles out of order";
      if r.Serve.merged_count <> r.registry_count then
        failwith "serve: shard-merge count disagrees with registry histogram")
    all_results;
  if !chaos_violations <> [] then
    failwith "serve: invariant violations in the chaos-composed cell"

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let run_selected ~quick ~metrics ~seeds ?jobs which =
  let iterations = if quick then 10 else 100 in
  let all = which = [] in
  let want name = all || List.mem name which in
  if want "table1" then table1 ?jobs ();
  if metrics && want "table1" then table1_messages ();
  if want "figure10" then figure10 ?jobs ();
  if want "figure11" then figure11 ?jobs ();
  if want "table2" then table2 ?jobs ();
  if want "table3" then table3 ~iterations ?jobs ();
  if want "ablation-forwarding" then ablation_forwarding ();
  if want "ablation-paging" then ablation_paging ~iterations ();
  if want "ablation-readerlist" then ablation_readerlist ();
  if want "ablation-striping" then ablation_striping ();
  if want "ablation-memory" then ablation_memory ();
  if want "bechamel" then bechamel ();
  (* explicit-only: it deliberately runs its batch twice to time it *)
  if List.mem "selfbench" which then selfbench ~quick ?jobs ();
  (* explicit-only: a harness microbench, not a paper experiment *)
  if List.mem "pagestore" which then pagestore ~quick ();
  (* explicit-only: fault injection is a soak, not a paper experiment *)
  if List.mem "chaos" which then chaos ~quick ~seeds ?jobs ();
  (* explicit-only: the serving SLO bench, not a paper experiment *)
  if List.mem "serve" which then serve ~quick ?jobs ()

let () =
  let quick = ref false in
  let metrics = ref false in
  let jobs = ref None in
  let seeds = ref 10 in
  let which = ref [] in
  let usage_num flag =
    Printf.eprintf "bench: %s expects a positive integer\n" flag;
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 1 -> jobs := Some j
      | _ -> usage_num "--jobs");
      parse rest
    | [ "--jobs" ] -> usage_num "--jobs"
    | "--seeds" :: n :: rest ->
      (match int_of_string_opt n with
      | Some s when s >= 1 -> seeds := s
      | _ -> usage_num "--seeds");
      parse rest
    | [ "--seeds" ] -> usage_num "--seeds"
    | name :: rest ->
      which := name :: !which;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  run_selected ~quick:!quick ~metrics:!metrics ~seeds:!seeds ?jobs:!jobs
    (List.rev !which)
