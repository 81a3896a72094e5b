type 'msg t = {
  metrics : Metrics.Registry.t;
  trace : Trace.t option;
  clock : unit -> float;
  proto : string;
  header_bytes : int;
  rows : (string * string) array;
  row_of : 'msg -> int;
  subject_of : 'msg -> int * int;
  is_transfer : bool array;  (* per row: group "transfer" *)
  (* row * 3 + contents index; resolved on first use *)
  msgs : Metrics.Counter.t option array;
  transfer : Metrics.Counter.t option array;  (* "transfer" rows only *)
  fault_read : Metrics.Histogram.t;
  fault_ownership : Metrics.Histogram.t;
  recovery_ms : Metrics.Histogram.t;
}

(* "contents" follows the paper's accounting: a message counts as
   carrying contents only when a page actually crosses the wire *)
let contents_labels = [| "none"; "local"; "wire" |]
let page_bytes = 8192

let create metrics ?trace ~clock ~proto ~header_bytes ~rows ~row_of ~subject_of
    () =
  let fault kind =
    Metrics.Registry.histogram metrics (proto ^ ".fault_ms")
      ~labels:[ ("kind", kind) ]
  in
  let cells = Array.length rows * 3 in
  {
    metrics;
    trace;
    clock;
    proto;
    header_bytes;
    rows;
    row_of;
    subject_of;
    is_transfer = Array.map (fun (_, group) -> group = "transfer") rows;
    msgs = Array.make cells None;
    transfer = Array.make cells None;
    fault_read = fault "read";
    fault_ownership = fault "ownership";
    recovery_ms = Metrics.Registry.histogram metrics (proto ^ ".recovery_ms");
  }

(* resolving a series is rare (its first use), so it stays out of line:
   the per-message path builds neither a closure nor a label list *)
let resolve m cache idx name labels =
  let c = Metrics.Registry.counter m.metrics (m.proto ^ name) ~labels in
  cache.(idx) <- Some c;
  c

let message m ~src ~dst ~carries_page msg =
  let row = m.row_of msg in
  let cls, group = m.rows.(row) in
  let ci = if not carries_page then 0 else if src = dst then 1 else 2 in
  let idx = (row * 3) + ci in
  Metrics.Counter.incr
    (match m.msgs.(idx) with
    | Some c -> c
    | None ->
      resolve m m.msgs idx ".msgs"
        [ ("class", cls); ("group", group); ("contents", contents_labels.(ci)) ]);
  if m.is_transfer.(row) then
    Metrics.Counter.incr
      (match m.transfer.(idx) with
      | Some c -> c
      | None ->
        resolve m m.transfer idx ".msgs.ownership_transfer"
          [ ("msg", cls); ("contents", contents_labels.(ci)) ]);
  match m.trace with
  | None -> ()
  | Some tr ->
    let obj, page = m.subject_of msg in
    Trace.emit tr ~time:(m.clock ()) ~node:src
      (Trace.Msg
         {
           proto = m.proto;
           cls;
           group;
           obj;
           page;
           src;
           dst;
           carries_page;
           bytes = (m.header_bytes + if carries_page then page_bytes else 0);
         })

let fault m ~ownership ms =
  Metrics.Histogram.observe (if ownership then m.fault_ownership else m.fault_read) ms

let recovery m ms = Metrics.Histogram.observe m.recovery_ms ms
