module Cluster = Asvm_cluster.Cluster
module Config = Asvm_cluster.Config
module Metrics = Asvm_obs.Metrics
module Json = Asvm_obs.Json
module Sts = Asvm_sts.Sts
module Fault_micro = Asvm_workloads.Fault_micro
module Copy_chain = Asvm_workloads.Copy_chain
module File_io = Asvm_workloads.File_io
module Em3d = Asvm_workloads.Em3d
module Runner = Asvm_runner.Runner

type outcome = {
  mm : Config.mm;
  workload : string;
  plan : Plan.t;
  reliable : bool;
  completed : bool;
  error : string option;
  violations : string list;
  retransmits : int;
  timeouts : int;
  duplicates_dropped : int;
  sim_ms : float;
  crashes : int;
  rejoins : int;
  lost_pages : int;
  recovery_p50_ms : float option;
  recovery_p99_ms : float option;
}

type overhead = {
  oh_workload : string;
  base_sim_ms : float;
  rel_sim_ms : float;
  rel_retransmits : int;
}

type report = {
  seeds : int;
  quick : bool;
  outcomes : outcome list;
  crash_outcomes : outcome list;
  overheads : overhead list;
  total_violations : int;
  lost_writes : int;
  incomplete : int;
}

let workloads = [ "fault"; "chain"; "file"; "em3d" ]

(* Chaos exercises the protocol state machines, not the problem size:
   every cell is a deliberately tiny instance of its workload.  The
   [crash] geometry is larger (>= 6 nodes) so a rolling k-of-n schedule
   has victims to pick from while pinned nodes (pagers, XMM managers,
   fork sources) stay up. *)
let dispatch ?(quick = false) ?(crash = false) ~mm ~tweak ~inspect
    ?(on_start = ignore) = function
  | "fault" ->
    ignore
      (Fault_micro.measure_instrumented ~nodes:8 ~tweak ~inspect ~on_start ~mm
         (Fault_micro.Write_fault
            { read_copies = (if crash then 4 else 2) }))
  | "chain" ->
    ignore
      (Copy_chain.measure ~mm ~chain:3 ~pages:(if quick then 4 else 8)
         ~extra_nodes:(if crash then 2 else 0) ~tweak ~inspect ~on_start ())
  | "file" ->
    ignore
      (File_io.read_test ~mm
         ~nodes:(if crash then 6 else 4)
         ~file_mb:1 ~tweak ~inspect ~on_start ())
  | "em3d" ->
    ignore
      (Em3d.run ~mm ~tweak ~inspect ~on_start
         {
           Em3d.cells = (if quick then 1000 else 2000);
           nodes = (if crash then 6 else 4);
           iterations = (if quick then 1 else 2);
           seed = 11;
         })
  | w -> invalid_arg (Printf.sprintf "Soak: unknown workload %S" w)

(* Victims a rolling schedule may kill under [workload]: never node 0
   (I/O node: pager, XMM manager) nor a node whose loss the workload
   cannot tolerate (the chain's fork sources and measured reader, the
   fault cell's initializer and faulter).  [Cluster.crashable] re-checks
   at crash time, so a pinned pick degrades to a skipped crash rather
   than an abort. *)
let crash_victims = function
  | "fault" -> [ 2; 3; 4; 5; 6 ]
  | "chain" -> [ 4; 5 ]
  | "file" | "em3d" -> [ 1; 2; 3; 4; 5 ]
  | w -> invalid_arg (Printf.sprintf "Soak: unknown workload %S" w)

(* Crash cadence matched to each workload's simulated span. *)
let crash_every_ms = function
  | "fault" -> 1.5
  | "chain" -> 3.
  | "file" -> 5.
  | "em3d" -> 10.
  | _ -> 5.

let crash_plan ~workload ~k =
  Plan.rolling ~victims:(crash_victims workload) ~k ~start_ms:0.5
    ~every_ms:(crash_every_ms workload) ()

let gauge snap name =
  match Metrics.find snap name [] with Some (Metrics.Gauge_v v) -> v | _ -> 0.

let histogram_p snap name =
  match Metrics.find snap name [] with
  | Some (Metrics.Histogram_v h) -> (Some h.p50, Some h.p99)
  | _ -> (None, None)

let apply_plan ?record ~reliable plan (c : Config.t) =
  let sts =
    {
      c.asvm.sts with
      Sts.interposer = Some (Plan.sts_interposer ?record plan);
      reliability = (if reliable then Some Sts.default_reliability else None);
    }
  in
  {
    c with
    net_interposer = Some (Plan.net_interposer ?record plan);
    asvm = { c.asvm with sts };
  }

let run_one ?quick ~mm ~workload ~plan ~reliable () =
  let violations = ref [] in
  let snap = ref [] in
  let inspect cl =
    violations := Invariants.check cl;
    snap := Cluster.metrics_snapshot cl
  in
  (* arm the plan's crash schedule once the workload's setup phase is
     done and its access loops are about to start *)
  let on_start cl =
    Plan.schedule_crashes plan ~engine:(Cluster.engine cl)
      ~crash:(fun v ->
        if Cluster.crashable cl ~node:v then begin
          Cluster.crash_node cl ~node:v;
          true
        end
        else false)
      ~rejoin:(fun v ->
        if Cluster.node_down cl ~node:v then Cluster.rejoin_node cl ~node:v)
  in
  let crash = plan.Plan.crashes <> [] in
  let error =
    match
      dispatch ?quick ~crash ~mm ~tweak:(apply_plan ~reliable plan) ~inspect
        ~on_start workload
    with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  let s = !snap in
  let recovery_p50_ms, recovery_p99_ms =
    histogram_p s
      (match mm with
      | Config.Mm_asvm -> "asvm.recovery_ms"
      | Config.Mm_xmm -> "xmm.recovery_ms")
  in
  {
    mm;
    workload;
    plan;
    reliable;
    completed = error = None;
    error;
    violations = !violations;
    retransmits = Metrics.counter_total s "sts.retransmits";
    timeouts = Metrics.counter_total s "sts.timeouts";
    duplicates_dropped = Metrics.counter_total s "sts.duplicates_dropped";
    sim_ms = gauge s "engine.sim_ms";
    crashes = Metrics.counter_total s "chaos.crashes";
    rejoins = Metrics.counter_total s "chaos.rejoins";
    lost_pages =
      Metrics.counter_total
        ~where:(fun ls -> List.assoc_opt "event" ls = Some "lost_page")
        s "asvm.crash";
    recovery_p50_ms;
    recovery_p99_ms;
  }

let run ?jobs ?(seeds = 10) ?(quick = false) () =
  let cells =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun workload ->
            [
              `Soak
                ( Config.Mm_asvm,
                  workload,
                  Plan.random ~seed ~lossy:true,
                  true );
              `Soak
                ( Config.Mm_xmm,
                  workload,
                  Plan.random ~seed ~lossy:false,
                  false );
            ])
          workloads)
      (List.init seeds (fun i -> i + 1))
    (* zero-fault overhead cells: reliability off vs on, perfect net *)
    @ List.concat_map
        (fun workload ->
          [
            `Soak (Config.Mm_asvm, workload, Plan.none, false);
            `Soak (Config.Mm_asvm, workload, Plan.none, true);
          ])
        workloads
    (* crash cells: rolling k-of-n whole-node failures on a perfect
       network, so every violation is attributable to recovery itself *)
    @ List.concat_map
        (fun workload ->
          List.concat_map
            (fun k ->
              let plan = crash_plan ~workload ~k in
              [
                `Soak (Config.Mm_asvm, workload, plan, true);
                `Soak (Config.Mm_xmm, workload, plan, false);
              ])
            [ 1; 2 ])
        workloads
  in
  let outcomes =
    Runner.map ?jobs
      (fun (`Soak (mm, workload, plan, reliable)) ->
        run_one ~quick ~mm ~workload ~plan ~reliable ())
      cells
  in
  let crash_outcomes, rest =
    List.partition (fun o -> o.plan.Plan.crashes <> []) outcomes
  in
  let chaos, perfect =
    List.partition (fun o -> o.plan.Plan.rules <> []) rest
  in
  let overheads =
    List.map
      (fun w ->
        let pick rel =
          List.find
            (fun o -> o.workload = w && o.reliable = rel)
            perfect
        in
        let base = pick false and rel = pick true in
        {
          oh_workload = w;
          base_sim_ms = base.sim_ms;
          rel_sim_ms = rel.sim_ms;
          rel_retransmits = rel.retransmits;
        })
      workloads
  in
  let total_violations =
    List.fold_left (fun acc o -> acc + List.length o.violations) 0 outcomes
  in
  let incomplete =
    List.length (List.filter (fun o -> not o.completed) outcomes)
  in
  (* silent data loss: two live copies of a page disagreeing on contents.
     (Physically unavoidable losses — the sole copy died with its node —
     are counted separately as [lost_pages] and are part of the
     documented failure model, not a violation.) *)
  let lost_writes =
    List.fold_left
      (fun acc o ->
        acc
        + List.length
            (List.filter
               (fun v ->
                 (* substring match on the forked-contents diagnostic *)
                 let needle = "forked contents" in
                 let n = String.length needle and l = String.length v in
                 let rec at i =
                   i + n <= l && (String.sub v i n = needle || at (i + 1))
                 in
                 at 0)
               o.violations))
      0 outcomes
  in
  {
    seeds;
    quick;
    outcomes = chaos;
    crash_outcomes;
    overheads;
    total_violations;
    lost_writes;
    incomplete;
  }

let pp_outcome ppf o =
  Format.fprintf ppf "%-5s %-6s %-28s %s%s%s"
    (Config.mm_name o.mm) o.workload
    (Printf.sprintf "%s%s" o.plan.Plan.label
       (if o.reliable then "+rel" else ""))
    (if o.completed then
       Printf.sprintf "ok  sim=%8.1fms retx=%-3d dup=%-3d" o.sim_ms
         o.retransmits o.duplicates_dropped
     else Printf.sprintf "FAILED (%s)" (Option.value ~default:"?" o.error))
    (if o.crashes = 0 then ""
     else
       Printf.sprintf " crash=%d rejoin=%d lost_pg=%d%s" o.crashes o.rejoins
         o.lost_pages
         (match (o.recovery_p50_ms, o.recovery_p99_ms) with
         | Some p50, Some p99 ->
           Printf.sprintf " recov p50=%.2fms p99=%.2fms" p50 p99
         | _ -> ""))
    (match o.violations with
    | [] -> ""
    | vs -> Printf.sprintf "  %d VIOLATIONS" (List.length vs))

let pp_report ppf r =
  Format.fprintf ppf
    "chaos soak: %d seeds%s, %d cells, %d violations, %d lost writes, %d \
     incomplete@."
    r.seeds
    (if r.quick then " (quick)" else "")
    (List.length r.outcomes + List.length r.crash_outcomes)
    r.total_violations r.lost_writes r.incomplete;
  List.iter (fun o -> Format.fprintf ppf "  %a@." pp_outcome o) r.outcomes;
  List.iter
    (fun o ->
      List.iter (fun v -> Format.fprintf ppf "    violation: %s@." v) o.violations)
    r.outcomes;
  if r.crash_outcomes <> [] then begin
    Format.fprintf ppf "rolling crash/rejoin cells:@.";
    List.iter
      (fun o -> Format.fprintf ppf "  %a@." pp_outcome o)
      r.crash_outcomes;
    List.iter
      (fun o ->
        List.iter
          (fun v -> Format.fprintf ppf "    violation: %s@." v)
          o.violations)
      r.crash_outcomes
  end;
  Format.fprintf ppf "zero-fault reliability overhead:@.";
  List.iter
    (fun oh ->
      Format.fprintf ppf
        "  %-6s sim %8.1f -> %8.1f ms (%+.2f%%)  retx=%d@."
        oh.oh_workload oh.base_sim_ms oh.rel_sim_ms
        (if oh.base_sim_ms > 0. then
           (oh.rel_sim_ms -. oh.base_sim_ms) /. oh.base_sim_ms *. 100.
         else 0.)
        oh.rel_retransmits)
    r.overheads

let outcome_to_json o =
  Json.Obj
    [
      ("mm", Json.String (Config.mm_name o.mm));
      ("workload", Json.String o.workload);
      ("plan", Plan.to_json o.plan);
      ("reliable", Json.Bool o.reliable);
      ("completed", Json.Bool o.completed);
      ( "error",
        match o.error with None -> Json.Null | Some e -> Json.String e );
      ("violations", Json.List (List.map (fun v -> Json.String v) o.violations));
      ("retransmits", Json.Int o.retransmits);
      ("timeouts", Json.Int o.timeouts);
      ("duplicates_dropped", Json.Int o.duplicates_dropped);
      ("sim_ms", Json.Float o.sim_ms);
      ("crashes", Json.Int o.crashes);
      ("rejoins", Json.Int o.rejoins);
      ("lost_pages", Json.Int o.lost_pages);
      ( "recovery_p50_ms",
        match o.recovery_p50_ms with
        | None -> Json.Null
        | Some v -> Json.Float v );
      ( "recovery_p99_ms",
        match o.recovery_p99_ms with
        | None -> Json.Null
        | Some v -> Json.Float v );
    ]

let overhead_to_json oh =
  Json.Obj
    [
      ("workload", Json.String oh.oh_workload);
      ("base_sim_ms", Json.Float oh.base_sim_ms);
      ("rel_sim_ms", Json.Float oh.rel_sim_ms);
      ("rel_retransmits", Json.Int oh.rel_retransmits);
    ]

let to_json r =
  Json.Obj
    [
      ("schema", Json.String "asvm.chaos/v2");
      ("total_violations", Json.Int r.total_violations);
      ("lost_writes", Json.Int r.lost_writes);
      ("incomplete", Json.Int r.incomplete);
      ("seeds", Json.Int r.seeds);
      ("quick", Json.Bool r.quick);
      ("outcomes", Json.List (List.map outcome_to_json r.outcomes));
      ( "crash_outcomes",
        Json.List (List.map outcome_to_json r.crash_outcomes) );
      ("overhead", Json.List (List.map overhead_to_json r.overheads));
    ]
