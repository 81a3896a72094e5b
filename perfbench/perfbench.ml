(* One repetition of one benchmark workload, in a fresh process so that
   the heap high-water mark is the workload's own.  Prints one JSON line:
   the operation counts, the checks, every metric with its unit, and (with
   --trace) the spans.  run.py starts several of these per benchmark run
   and aggregates them, timing the reference computation (--calibrate) in
   a process of its own just before and just after each one.

     perfbench.exe --workload serve-asvm-64 --seed 42 [--trace] [--tiny]
     perfbench.exe --calibrate *)

module Json = Asvm_obs.Json
module Suite = Asvm_perfbench.Suite
module Probe = Asvm_perfbench.Probe
module Calib = Asvm_perfbench.Calib

let () =
  let workload = ref "" and seed = ref 42 and traced = ref false and tiny = ref false in
  let calibrate = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " Suite.workloads);
      ("--seed", Arg.Set_int seed, " input seed (default 42)");
      ("--trace", Arg.Set traced, " record spans and per-layer metrics");
      ("--tiny", Arg.Set tiny, " smoke-test sizes");
      ("--calibrate", Arg.Set calibrate, " time the reference computation instead");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe (--workload NAME [--seed N] [--trace] [--tiny] | --calibrate)";
  if !calibrate then begin
    let calib_s = Calib.run () in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("calib_s", Json.Float calib_s); ("reference_s", Json.Float Calib.reference_s) ]));
    exit 0
  end;
  if not (List.mem !workload Suite.workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let size = if !tiny then Suite.Tiny else Suite.Full in
  let rep = Suite.run ~workload:!workload ~traced:!traced ~size ~seed:!seed in
  let spans = Probe.recorded () in
  let origin = List.fold_left (fun t (s : Probe.span) -> Float.min t s.t0) infinity spans in
  let json =
    Json.Obj
      [
        ("workload", Json.String !workload);
        ("seed", Json.Int !seed);
        ("traced", Json.Bool !traced);
        ("attempted", Json.Int rep.attempted);
        ("failed", Json.Int rep.failed);
        ( "checks",
          Json.List
            (List.map
               (fun (name, ok) -> Json.Obj [ ("name", Json.String name); ("ok", Json.Bool ok) ])
               rep.checks) );
        ( "metrics",
          Json.List
            (List.map
               (fun (m : Suite.metric) ->
                 Json.Obj
                   [
                     ("name", Json.String m.name);
                     ("unit", Json.String m.unit_);
                     ("value", Json.Float m.value);
                     ("host", Json.Bool m.host);
                   ])
               rep.metrics) );
        ( "spans",
          Json.List
            (List.map
               (fun (s : Probe.span) ->
                 Json.Obj
                   [
                     ("id", Json.Int s.id);
                     ("parent", Json.Int s.parent);
                     ("name", Json.String s.name);
                     ("start_s", Json.Float (s.t0 -. origin));
                     ("dur_s", Json.Float (s.t1 -. s.t0));
                     ("self_s", Json.Float (Probe.self_time s spans));
                   ])
               spans) );
      ]
  in
  print_endline (Json.to_string json)
