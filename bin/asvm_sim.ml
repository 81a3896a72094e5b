(* asvm-sim: command-line driver for the ASVM multicomputer simulator.

   Subcommands run each of the paper's experiments with configurable
   parameters:

     asvm-sim fault  --mm asvm --readers 4 --kind write
     asvm-sim chain  --mm xmm --length 6
     asvm-sim file   --mm asvm --nodes 16 --op read --mb 4
     asvm-sim em3d   --mm asvm --nodes 32 --cells 256000 --iterations 20
     asvm-sim serve  --mm asvm --arrival bursty --oversub 3.0
     asvm-sim serve  --nodes 16 --rate 4000 --trace-out serve.jsonl
     asvm-sim chaos  --seed 3 --workload file --mm asvm
     asvm-sim bench  table1 figure10 --jobs 4
     asvm-sim bench  chaos --seeds 10 *)

open Cmdliner

module Config = Asvm_cluster.Config
module Fault_micro = Asvm_workloads.Fault_micro
module Copy_chain = Asvm_workloads.Copy_chain
module File_io = Asvm_workloads.File_io
module Em3d = Asvm_workloads.Em3d
module Metrics = Asvm_obs.Metrics

let mm_arg =
  let parse = function
    | "asvm" -> Ok Config.Mm_asvm
    | "xmm" -> Ok Config.Mm_xmm
    | s -> Error (`Msg (Printf.sprintf "unknown memory manager %S" s))
  in
  let print ppf mm = Format.pp_print_string ppf (String.lowercase_ascii (Config.mm_name mm)) in
  Arg.conv (parse, print)

let mm_term =
  Arg.(
    value
    & opt mm_arg Config.Mm_asvm
    & info [ "mm" ] ~docv:"MM" ~doc:"Memory manager: $(b,asvm) or $(b,xmm).")

let trace_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Stream the protocol trace to $(docv), one JSON object per line \
           (see docs/OBSERVABILITY.md for the schema).")

let metrics_term =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the metric registry snapshot after the run.")

let quick_term =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Shrink the workload sizes (CI smoke).")

let print_snapshot ~header snapshot =
  Printf.printf "\n%s\n" header;
  Metrics.pp_snapshot Format.std_formatter snapshot;
  Format.pp_print_flush Format.std_formatter ()

(* ------------------------------- fault ------------------------------ *)

let fault_cmd =
  let kind_term =
    Arg.(
      value
      & opt (enum [ ("write", `Write); ("upgrade", `Upgrade); ("read", `Read) ]) `Write
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Fault kind: $(b,write), $(b,upgrade) or $(b,read).")
  in
  let readers_term =
    Arg.(value & opt int 2 & info [ "readers" ] ~doc:"Read copies in place.")
  in
  let nodes_term =
    Arg.(value & opt int 72 & info [ "nodes" ] ~doc:"Machine size.")
  in
  let run mm kind readers nodes trace_out metrics =
    let fk =
      match kind with
      | `Write -> Fault_micro.Write_fault { read_copies = readers }
      | `Upgrade -> Fault_micro.Write_upgrade { read_copies = readers }
      | `Read -> Fault_micro.Read_fault { nth_reader = readers }
    in
    let r = Fault_micro.measure_instrumented ~nodes ?trace_out ~mm fk in
    Printf.printf "%s under %s: %.2f ms\n" (Fault_micro.describe fk)
      (Config.mm_name mm) r.Fault_micro.latency_ms;
    if metrics then begin
      print_snapshot ~header:"counters over the measured fault:"
        r.Fault_micro.fault_metrics;
      print_snapshot ~header:"full run snapshot:" r.Fault_micro.run_metrics
    end;
    Option.iter
      (fun f -> Printf.printf "\ntrace written to %s\n" f)
      trace_out
  in
  Cmd.v
    (Cmd.info "fault" ~doc:"Page-fault latency microbenchmark (Table 1).")
    Term.(
      const run $ mm_term $ kind_term $ readers_term $ nodes_term
      $ trace_out_term $ metrics_term)

(* ------------------------------- chain ------------------------------ *)

let chain_cmd =
  let length_term =
    Arg.(value & opt int 4 & info [ "length" ] ~doc:"Copy-chain length.")
  in
  let run mm length =
    let r = Copy_chain.measure ~mm ~chain:length () in
    Printf.printf
      "chain of %d under %s: %.2f ms mean fault latency (%d faults, %.2f ms \
       total)\n"
      length (Config.mm_name mm) r.Copy_chain.mean_fault_ms r.Copy_chain.faults
      r.Copy_chain.total_ms
  in
  Cmd.v
    (Cmd.info "chain" ~doc:"Inherited-memory copy-chain benchmark (Figure 11).")
    Term.(const run $ mm_term $ length_term)

(* -------------------------------- file ------------------------------ *)

let file_cmd =
  let nodes_term =
    Arg.(value & opt int 8 & info [ "nodes" ] ~doc:"Nodes accessing the file.")
  in
  let mb_term = Arg.(value & opt int 4 & info [ "mb" ] ~doc:"File size (MB).") in
  let op_term =
    Arg.(
      value
      & opt (enum [ ("read", `Read); ("write", `Write) ]) `Read
      & info [ "op" ] ~doc:"Access type: $(b,read) or $(b,write).")
  in
  let run mm nodes mb op =
    let r =
      match op with
      | `Read -> File_io.read_test ~mm ~nodes ~file_mb:mb ()
      | `Write -> File_io.write_test ~mm ~nodes ~file_mb:mb ()
    in
    Printf.printf
      "%s of a %d MB mapped file on %d nodes under %s: %.2f MB/s per node \
       (%d pager supplies)\n"
      (match op with `Read -> "parallel read" | `Write -> "parallel write")
      mb nodes (Config.mm_name mm) r.File_io.per_node_mb_s
      r.File_io.pager_supplies
  in
  Cmd.v
    (Cmd.info "file" ~doc:"Mapped-file transfer-rate benchmark (Table 2).")
    Term.(const run $ mm_term $ nodes_term $ mb_term $ op_term)

(* -------------------------------- em3d ------------------------------ *)

let em3d_cmd =
  let nodes_term =
    Arg.(value & opt int 16 & info [ "nodes" ] ~doc:"Compute nodes.")
  in
  let cells_term =
    Arg.(value & opt int 64_000 & info [ "cells" ] ~doc:"Total E+H cells.")
  in
  let iter_term =
    Arg.(value & opt int 20 & info [ "iterations" ] ~doc:"Iterations.")
  in
  let big_mem_term =
    Arg.(
      value & flag
      & info [ "big-memory" ]
          ~doc:"Give every node enough memory for the whole data set.")
  in
  let run mm nodes cells iterations big_mem metrics =
    let memory_pages =
      if big_mem then Some (Em3d.data_pages ~cells + 64) else None
    in
    if
      (not big_mem) && nodes > 1
      && not
           (Em3d.fits ~cells ~nodes
              ~memory_pages_per_node:Asvm_machvm.Vm_config.default.memory_pages)
    then
      print_endline
        "data set exceeds the combined memory of the nodes (the paper marks \
         this **); use --big-memory to run anyway"
    else begin
      let r =
        Em3d.run ~mm ?memory_pages
          { (Em3d.default_params ~cells ~nodes) with iterations }
      in
      Printf.printf
        "EM3D %d cells, %d iterations on %d nodes under %s: %.2f s (%d page \
         faults, %d protocol messages)\n"
        cells iterations nodes (Config.mm_name mm) r.Em3d.seconds r.Em3d.faults
        r.Em3d.protocol_messages;
      if metrics then
        print_snapshot ~header:"metric registry snapshot:" r.Em3d.metrics
    end
  in
  Cmd.v
    (Cmd.info "em3d" ~doc:"EM3D application benchmark (Table 3).")
    Term.(
      const run $ mm_term $ nodes_term $ cells_term $ iter_term $ big_mem_term
      $ metrics_term)

(* -------------------------------- sor ------------------------------- *)

let sor_cmd =
  let nodes_term =
    Arg.(value & opt int 8 & info [ "nodes" ] ~doc:"Compute nodes.")
  in
  let grid_term =
    Arg.(value & opt int 1024 & info [ "grid" ] ~doc:"Grid side length.")
  in
  let iter_term =
    Arg.(value & opt int 10 & info [ "iterations" ] ~doc:"Iterations.")
  in
  let run mm nodes grid iterations =
    let r =
      Asvm_workloads.Sor.run ~mm { Asvm_workloads.Sor.grid; nodes; iterations }
    in
    Printf.printf
      "SOR %dx%d, %d iterations on %d nodes under %s: %.3f s (%d page faults)\n"
      grid grid iterations nodes (Config.mm_name mm)
      r.Asvm_workloads.Sor.seconds r.Asvm_workloads.Sor.faults
  in
  Cmd.v
    (Cmd.info "sor" ~doc:"Strip-partitioned SOR stencil (nearest-neighbour SVM).")
    Term.(const run $ mm_term $ nodes_term $ grid_term $ iter_term)

(* -------------------------------- serve ----------------------------- *)

let serve_cmd =
  let module Serve = Asvm_serve.Serve in
  let module Arrival = Asvm_serve.Arrival in
  let nodes_term =
    Arg.(
      value
      & opt int Serve.default_params.Serve.nodes
      & info [ "nodes" ] ~doc:"Serving fleet size.")
  in
  let arrival_term =
    Arg.(
      value
      & opt (enum [ ("poisson", `Poisson); ("bursty", `Bursty) ]) `Poisson
      & info [ "arrival" ] ~docv:"PROCESS"
          ~doc:"Arrival process: $(b,poisson) or $(b,bursty).")
  in
  let rate_term =
    Arg.(
      value & opt float 1000.
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Mean arrival rate (requests/s).  A bursty process runs at \
             2.5x$(docv) for 40 ms then $(docv)/4 for 60 ms.")
  in
  let oversub_term =
    Arg.(
      value
      & opt float Serve.default_params.Serve.oversub
      & info [ "oversub" ] ~docv:"X"
          ~doc:
            "Working set as a multiple of aggregate fleet memory; above \
             1.0 the fleet must page to serve.")
  in
  let duration_term =
    Arg.(
      value
      & opt float Serve.default_params.Serve.duration_ms
      & info [ "duration-ms" ] ~doc:"Arrival window (the run drains past it).")
  in
  let read_fraction_term =
    Arg.(
      value
      & opt float Serve.default_params.Serve.read_fraction
      & info [ "read-fraction" ] ~doc:"Fraction of requests that only read.")
  in
  let zipf_term =
    Arg.(
      value
      & opt (some float) (Some 0.9)
      & info [ "zipf" ] ~docv:"A"
          ~doc:
            "Zipf key-popularity exponent; pass $(b,0) for uniform keys.")
  in
  let seed_term =
    Arg.(
      value
      & opt int Serve.default_params.Serve.seed
      & info [ "seed" ] ~doc:"Experiment seed (the run is pure in it).")
  in
  let run mm nodes arrival rate oversub duration_ms read_fraction zipf seed
      trace_out metrics =
    let process =
      match arrival with
      | `Poisson -> Arrival.Poisson { rate_per_s = rate }
      | `Bursty -> Bench.bursty rate
    in
    let key_dist =
      match zipf with
      | None | Some 0. -> Arrival.Uniform
      | Some a -> Arrival.Zipf a
    in
    let p =
      {
        Serve.default_params with
        Serve.nodes;
        oversub;
        duration_ms;
        process;
        read_fraction;
        key_dist;
        seed;
      }
    in
    let r = Serve.run ~mm ~tweak:(fun c -> { c with Config.trace_out }) p in
    Printf.printf
      "%s %s oversub %.1f: %d/%d requests completed on %d nodes (%d-page \
       working set)\n"
      (Config.mm_name mm)
      (Arrival.process_name process)
      oversub r.Serve.completions r.Serve.requests nodes
      (Serve.working_set_pages p);
    Printf.printf
      "  latency: p50 %.2f ms, p99 %.2f ms, p999 %.2f ms, max %.2f ms\n"
      r.Serve.p50_ms r.Serve.p99_ms r.Serve.p999_ms r.Serve.max_ms;
    Printf.printf "  goodput: %.0f req/s over %.0f ms served\n"
      r.Serve.goodput_rps r.Serve.sim_ms;
    Printf.printf
      "  paging: %d evictions (%d by daemon over %d scans), %d pager stores\n"
      r.Serve.evictions r.Serve.pageout_evictions r.Serve.pageout_runs
      r.Serve.pager_stores;
    if mm = Config.Mm_asvm then
      Printf.printf
        "  eviction steps: %d reader handoffs, %d internode pageouts, %d to \
         the pager\n"
        r.Serve.reader_handoffs r.Serve.internode_pageouts
        r.Serve.pageouts_to_pager;
    if metrics then
      print_snapshot ~header:"metric registry snapshot:" r.Serve.metrics;
    Option.iter
      (fun f -> Printf.printf "\ntrace written to %s\n" f)
      trace_out;
    Option.iter
      (fun e ->
        prerr_endline ("asvm-sim: serve: " ^ e);
        exit 1)
      (Bench.serve_fault r)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Open-loop serving workload: SLO percentiles under memory \
          oversubscription (see docs/SERVING.md).  Exits 1 when a request \
          does not complete, the percentiles are out of order or the shard \
          merge is inexact.")
    Term.(
      const run $ mm_term $ nodes_term $ arrival_term $ rate_term
      $ oversub_term $ duration_term $ read_fraction_term $ zipf_term
      $ seed_term $ trace_out_term $ metrics_term)

(* -------------------------------- chaos ----------------------------- *)

let chaos_cmd =
  let module Plan = Asvm_chaos.Plan in
  let module Soak = Asvm_chaos.Soak in
  let seed_term =
    Arg.(
      required
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "The soak cell to reproduce: the plan is regenerated from \
             $(docv) and replayed against $(b,--workload) under $(b,--mm).")
  in
  let workload_term =
    Arg.(
      value
      & opt (enum (List.map (fun w -> (w, w)) Soak.workloads)) "fault"
      & info [ "workload" ] ~docv:"W"
          ~doc:"Workload: fault, chain, file or em3d.")
  in
  let crash_term =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Overlay a rolling whole-node crash/rejoin schedule on the \
             seeded message-fault plan (see docs/AVAILABILITY.md).")
  in
  let k_term =
    Arg.(
      value & opt int 1
      & info [ "k" ] ~docv:"K"
          ~doc:"Concurrently-down nodes for $(b,--crash) (default 1).")
  in
  let run mm seed workload quick crash k =
    let lossy = mm = Config.Mm_asvm in
    let plan = Plan.random ~seed ~lossy in
    let plan =
      if crash then
        Plan.with_crashes plan (Soak.crash_plan ~workload ~k).Plan.crashes
      else plan
    in
    Printf.printf "plan: %s\n%!" (Plan.describe plan);
    let o = Soak.run_one ~quick ~mm ~workload ~plan ~reliable:lossy () in
    Printf.printf "%s %s: %s, %d retransmits, %d duplicates dropped\n"
      (Config.mm_name mm) workload
      (if o.Soak.completed then "completed" else "DID NOT COMPLETE")
      o.Soak.retransmits o.Soak.duplicates_dropped;
    if o.Soak.crashes > 0 then begin
      Printf.printf "crashes: %d, rejoins: %d, lost pages (sole copy died): %d\n"
        o.Soak.crashes o.Soak.rejoins o.Soak.lost_pages;
      match (o.Soak.recovery_p50_ms, o.Soak.recovery_p99_ms) with
      | Some p50, Some p99 ->
        Printf.printf "recovery latency: p50=%.2f ms p99=%.2f ms\n" p50 p99
      | _ -> ()
    end;
    Option.iter (fun e -> Printf.printf "error: %s\n" e) o.Soak.error;
    List.iter (fun v -> Printf.printf "violation: %s\n" v) o.Soak.violations;
    if o.Soak.violations <> [] || not o.Soak.completed then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay one cell of the fault-injection soak ($(b,bench chaos)): a \
          seeded fault plan, optionally with rolling node crash/rejoin, \
          against one workload, with protocol invariant checks after \
          quiesce (see docs/RELIABILITY.md and docs/AVAILABILITY.md).  \
          Exits 1 on a violation or an incomplete run.")
    Term.(
      const run $ mm_term $ seed_term $ workload_term $ quick_term
      $ crash_term $ k_term)

(* -------------------------------- bench ----------------------------- *)

let bench_cmd =
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ ->
        Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let names_term =
    let named_only =
      List.filter_map
        (fun (name, by_default, _) -> if by_default then None else Some name)
        Bench.experiments
    in
    Arg.(
      value
      & pos_all
          (enum (List.map (fun (name, _, _) -> (name, name)) Bench.experiments))
          []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            (Printf.sprintf
               "Experiments to run; they run in table order.  With none, \
                every paper experiment runs; %s run only when named."
               (String.concat ", " named_only)))
  in
  let metrics_term =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "With $(b,table1): also print its message-count columns, read \
             off the metric registry.")
  in
  let jobs_term =
    Arg.(
      value
      & opt (some positive) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the cell pool (default: the recommended \
             domain count; 1 = sequential).  Results are independent of \
             $(docv).")
  in
  let seeds_term =
    Arg.(
      value & opt positive 10
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Random fault plans per (protocol, workload) cell of \
             $(b,chaos).")
  in
  let run names quick metrics jobs seeds =
    Bench.run ~quick ~metrics ~seeds ~jobs names
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the paper's tables and figures next to the published \
          numbers, the DESIGN.md ablations, and the chaos and serving \
          benchmarks that write BENCH_*.json.")
    Term.(
      const run $ names_term $ quick_term $ metrics_term $ jobs_term
      $ seeds_term)

let () =
  let doc = "ASVM multicomputer simulator (USENIX '96 reproduction)" in
  let info = Cmd.info "asvm-sim" ~version:"1.0.0" ~doc in
  match
    Cmd.eval ~catch:false
      (Cmd.group info
         [
           fault_cmd; chain_cmd; file_cmd; em3d_cmd; sor_cmd; serve_cmd;
           chaos_cmd; bench_cmd;
         ])
  with
  | code -> exit code
  | exception Sys_error msg ->
    (* e.g. an unwritable --trace-out path *)
    Printf.eprintf "asvm-sim: %s\n" msg;
    exit 1
