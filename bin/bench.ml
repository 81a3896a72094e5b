(* The experiments behind [asvm-sim bench]: every table and figure of
   the paper's evaluation section (section 4) and the DESIGN.md
   ablations, printed next to the published numbers, plus the chaos
   soak and the serving bench, which write BENCH_*.json.  Every number
   is simulated; perfbench/ measures the host.  [experiments] at the
   end is the one table of them.

   Every paper experiment:  asvm-sim bench
   One experiment:          asvm-sim bench table1
   Quick mode:              asvm-sim bench --quick table3
   Parallel cells:          asvm-sim bench table3 --jobs 4
   Chaos soak:              asvm-sim bench chaos --seeds 10
   Serving SLO bench:       asvm-sim bench serve *)

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
    let cl = Asvm_cluster.Cluster.create (Config.default ~nodes) in
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
  let snap = Asvm_cluster.Cluster.metrics_snapshot cl in
  let pageouts step =
    Metrics.counter_total
      ~where:(fun ls -> List.assoc_opt "step" ls = Some step)
      snap "asvm.pageout"
  in
  pf "owner before eviction: node %d@." owner_before;
  (match owner_after with
  | Some n -> pf "owner after eviction : node %d (reader hand-off)@." n
  | None -> pf "owner after eviction : none (page at pager)@.");
  pf "reader hand-offs: %d, page transfers: %d, pager write-backs: %d@."
    (pageouts "reader_handoff") (pageouts "internode") (pageouts "to_pager");
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

(* The bursty arrival shape of every serve cell, here and in
   [asvm-sim serve]: 2.5x [rate] for 40 ms, then [rate]/4 for 60 ms. *)
let bursty rate =
  Arrival.Bursty
    {
      on_rate_per_s = rate *. 2.5;
      off_rate_per_s = rate /. 4.;
      on_ms = 40.;
      off_ms = 60.;
    }

let percentiles_ordered (r : Serve.result) =
  r.p50_ms <= r.p99_ms && r.p99_ms <= r.p999_ms

let merge_exact (r : Serve.result) =
  r.merged_count = r.registry_count && r.merged_count = r.completions

(* The serve verdict, here and in [asvm-sim serve]: what is wrong with a
   cell's result, if anything.  The percentiles cover completed requests
   only, so a stranded request would not show in them. *)
let serve_fault (r : Serve.result) =
  if r.completions <> r.requests then
    Some "open loop failed to drain (completions <> requests)"
  else if not (percentiles_ordered r) then Some "percentiles out of order"
  else if not (merge_exact r) then
    Some "shard-merge count disagrees with registry histogram"
  else None

let serve_cell_json ~mm ~process ~oversub ~violations (r : Serve.result) =
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
      ("percentiles_ordered", Json.Bool (percentiles_ordered r));
      ("merge_exact", Json.Bool (merge_exact r));
      ( "violations",
        match violations with
        | None -> Json.Null
        | Some vs -> Json.List (List.map (fun v -> Json.String v) vs) );
    ]

let serve ~quick ?jobs () =
  let module Plan = Asvm_chaos.Plan in
  let module Invariants = Asvm_chaos.Invariants in
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
  let arrivals = [ Arrival.Poisson { rate_per_s = rate }; bursty rate ] in
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
      ~tweak:(Asvm_chaos.Soak.apply_plan ~reliable:true plan)
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
  List.iter
    (fun r -> Option.iter (fun e -> failwith ("serve: " ^ e)) (serve_fault r))
    (chaos_result :: results);
  if !chaos_violations <> [] then
    failwith "serve: invariant violations in the chaos-composed cell"

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

(* The experiment table: each row is a name, whether a bare
   [asvm-sim bench] runs it, and how to run it under the command line's
   options.  Its names are the ones [asvm-sim bench] accepts, and the
   selected rows run in table order. *)
let experiments =
  let iterations quick = if quick then 10 else 100 in
  [
    ( "table1", true,
      fun ~quick:_ ~metrics ~seeds:_ ~jobs ->
        table1 ?jobs ();
        if metrics then table1_messages () );
    ( "figure10", true,
      fun ~quick:_ ~metrics:_ ~seeds:_ ~jobs -> figure10 ?jobs () );
    ( "figure11", true,
      fun ~quick:_ ~metrics:_ ~seeds:_ ~jobs -> figure11 ?jobs () );
    ("table2", true, fun ~quick:_ ~metrics:_ ~seeds:_ ~jobs -> table2 ?jobs ());
    ( "table3", true,
      fun ~quick ~metrics:_ ~seeds:_ ~jobs ->
        table3 ~iterations:(iterations quick) ?jobs () );
    ( "ablation-forwarding", true,
      fun ~quick:_ ~metrics:_ ~seeds:_ ~jobs:_ -> ablation_forwarding () );
    ( "ablation-paging", true,
      fun ~quick ~metrics:_ ~seeds:_ ~jobs:_ ->
        ablation_paging ~iterations:(iterations quick) () );
    ( "ablation-readerlist", true,
      fun ~quick:_ ~metrics:_ ~seeds:_ ~jobs:_ -> ablation_readerlist () );
    ( "ablation-striping", true,
      fun ~quick:_ ~metrics:_ ~seeds:_ ~jobs:_ -> ablation_striping () );
    ( "ablation-memory", true,
      fun ~quick:_ ~metrics:_ ~seeds:_ ~jobs:_ -> ablation_memory () );
    (* named only: fault injection is a soak, not a paper experiment *)
    ( "chaos", false,
      fun ~quick ~metrics:_ ~seeds ~jobs -> chaos ~quick ~seeds ?jobs () );
    (* named only: the serving SLO bench, not a paper experiment *)
    ( "serve", false,
      fun ~quick ~metrics:_ ~seeds:_ ~jobs -> serve ~quick ?jobs () );
  ]

(* Run the rows named in [names], or every default row when [names] is
   empty. *)
let run ~quick ~metrics ~seeds ~jobs names =
  List.iter
    (fun (name, by_default, run) ->
      if (names = [] && by_default) || List.mem name names then
        run ~quick ~metrics ~seeds ~jobs)
    experiments
