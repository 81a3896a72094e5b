(* Smoke tests of the benchmark at tiny sizes: each workload runs in a
   fresh worker process, as run.py starts it, and must
   - report exactly its end-to-end metrics (the README's matrix), each
     with its unit, and every per-layer metric when traced;
   - complete every operation (ok_pct 100) with no invariant violation
     and every check passing;
   - give bit-identical simulated metrics, heap_peak_mb included, in two
     processes with one seed. *)

module Json = Asvm_obs.Json

type metric = { name : string; unit_ : string; value : float; host : bool }

let get key j =
  match Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "worker output has no %S" key

let str j = Option.get (Json.to_str j)

let worker args =
  let argv = Array.of_list ("./perfbench.exe" :: "--tiny" :: args) in
  let ic = Unix.open_process_args_in "./perfbench.exe" argv in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "perfbench.exe %s failed" (String.concat " " args));
  match Json.of_string (String.trim out) with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparsable worker output: %s" e

let metrics j =
  match get "metrics" j with
  | Json.List ms ->
    List.map
      (fun m ->
        {
          name = str (get "name" m);
          unit_ = str (get "unit" m);
          value = Option.get (Json.to_float (get "value" m));
          host = Option.get (Json.to_bool (get "host" m));
        })
      ms
  | _ -> Alcotest.fail "metrics is not a list"

let common =
  [
    ("host_s", "s"); ("setup_s", "s"); ("heap_peak_mb", "MB");
    ("msgs_per_fault", "msgs/fault"); ("ok_pct", "%"); ("violations", "count");
  ]

let end_to_end = function
  | "serve-asvm-64" -> common @ [ ("p50_ms", "ms"); ("p99_ms", "ms"); ("slo_met_pct", "%") ]
  | "em3d-32" -> common @ [ ("sim_s", "s"); ("paper_err_pct", "%") ]
  | _ -> common @ [ ("paper_err_pct", "%") ]

(* BENCHMARK.json's per-layer list, less the overhead run.py computes. *)
let per_layer () =
  let spec =
    match Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  match get "per_layer" spec with
  | Json.List ms ->
    List.map (fun m -> (str (get "name" m), str (get "unit" m))) ms
    |> List.filter (fun (n, _) -> n <> "trace.overhead_pct")
  | _ -> Alcotest.fail "per_layer is not a list"

let names_units ms = List.sort compare (List.map (fun m -> (m.name, m.unit_)) ms)
let value ms name = (List.find (fun m -> m.name = name) ms).value

let test_metrics workload () =
  let untraced = metrics (worker [ "--workload"; workload ]) in
  Alcotest.(check (list (pair string string)))
    "end-to-end metrics and units" (List.sort compare (end_to_end workload))
    (names_units untraced);
  let traced = metrics (worker [ "--workload"; workload; "--trace" ]) in
  Alcotest.(check (list (pair string string)))
    "per-layer metrics and units"
    (List.sort compare (end_to_end workload @ per_layer ()))
    (names_units traced);
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then Alcotest.failf "%s is not finite" m.name)
    traced

let test_correct workload () =
  let j = worker [ "--workload"; workload ] in
  let ms = metrics j in
  Alcotest.(check (float 0.)) "ok_pct" 100. (value ms "ok_pct");
  Alcotest.(check (float 0.)) "violations" 0. (value ms "violations");
  Alcotest.(check (option int)) "failed" (Some 0) (Json.to_int (get "failed" j));
  (match get "checks" j with
  | Json.List cs ->
    List.iter
      (fun c ->
        if Json.to_bool (get "ok" c) <> Some true then
          Alcotest.failf "check failed: %s" (str (get "name" c)))
      cs
  | _ -> Alcotest.fail "checks is not a list");
  if Json.to_int (get "attempted" j) = Some 0 then Alcotest.fail "no operation attempted"

let test_deterministic workload () =
  let simulated () =
    worker [ "--workload"; workload; "--seed"; "5"; "--trace" ]
    |> metrics
    |> List.filter (fun m -> not m.host)
    |> List.map (fun m -> (m.name, m.value))
  in
  let a = simulated () and b = simulated () in
  Alcotest.(check (list (pair string (float 0.)))) "same simulated metrics" a b

let () =
  let cases workload =
    ( workload,
      [
        Alcotest.test_case "every metric with its unit" `Quick (test_metrics workload);
        Alcotest.test_case "ok_pct 100, no violations" `Quick (test_correct workload);
        Alcotest.test_case "one seed, identical simulated metrics" `Quick
          (test_deterministic workload);
      ] )
  in
  Alcotest.run "perfbench" (List.map cases Asvm_perfbench.Suite.workloads)
