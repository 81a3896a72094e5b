type labels = (string * string) list

let normalize labels =
  (* sort by key; last binding for a duplicated key wins *)
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec dedup = function
    | (k1, _) :: ((k2, _) :: _ as rest) when k1 = k2 -> dedup rest
    | kv :: rest -> kv :: dedup rest
    | [] -> []
  in
  dedup sorted

module Counter = struct
  type t = { mutable n : int }

  let incr ?(by = 1) t = t.n <- t.n + by
  let value t = t.n
end

module Gauge = struct
  type t = { mutable v : float }

  let set t v = t.v <- v
  let add t v = t.v <- t.v +. v
  let value t = t.v
end

module Histogram = struct
  type t = {
    mutable samples : Float.Array.t;
        (* unboxed, in order of observation; [n] of them are live, the
           rest is growth headroom *)
    mutable n : int;
    mutable sum : float;
    mutable sorted : float array option;  (* cache, invalidated on observe *)
  }

  let create () =
    { samples = Float.Array.create 0; n = 0; sum = 0.; sorted = None }

  let observe t x =
    let cap = Float.Array.length t.samples in
    if t.n = cap then begin
      let grown = Float.Array.create (max 16 (2 * cap)) in
      Float.Array.blit t.samples 0 grown 0 t.n;
      t.samples <- grown
    end;
    Float.Array.set t.samples t.n x;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    t.sorted <- None

  let count t = t.n

  (* pooled samples, not a sketch: the merged histogram is exactly the
     one a single collector would have produced *)
  let merge a b =
    let samples = Float.Array.create (a.n + b.n) in
    Float.Array.blit a.samples 0 samples 0 a.n;
    Float.Array.blit b.samples 0 samples a.n b.n;
    { samples; n = a.n + b.n; sum = a.sum +. b.sum; sorted = None }

  let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
      let a = Array.init t.n (Float.Array.get t.samples) in
      Array.sort compare a;
      t.sorted <- Some a;
      a

  let values t = Array.copy (sorted t)

  let percentile t p =
    if t.n = 0 then invalid_arg "Histogram.percentile: empty";
    if p < 0. || p > 100. then invalid_arg "Histogram.percentile: p";
    let a = sorted t in
    let rank = p /. 100. *. float_of_int (t.n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then a.(lo)
    else
      let frac = rank -. float_of_int lo in
      (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
end

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      count : int;
      mean : float;
      min : float;
      max : float;
      p50 : float;
      p90 : float;
      p99 : float;
    }

type sample = { name : string; labels : labels; value : value }
type snapshot = sample list

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

module Registry = struct
  type t = { table : (string * labels, metric) Hashtbl.t }

  let create () = { table = Hashtbl.create 64 }

  let get t ~name ~labels ~make ~cast ~kind =
    let key = (name, normalize labels) in
    match Hashtbl.find_opt t.table key with
    | Some m -> (
      match cast m with
      | Some x -> x
      | None ->
        invalid_arg
          (Printf.sprintf "Metrics.Registry: %s already registered with a \
                           different type (wanted %s)"
             name kind))
    | None ->
      let x, m = make () in
      Hashtbl.add t.table key m;
      x

  let counter t ?(labels = []) name =
    get t ~name ~labels ~kind:"counter"
      ~make:(fun () ->
        let c = { Counter.n = 0 } in
        (c, M_counter c))
      ~cast:(function M_counter c -> Some c | _ -> None)

  let gauge t ?(labels = []) name =
    get t ~name ~labels ~kind:"gauge"
      ~make:(fun () ->
        let g = { Gauge.v = 0. } in
        (g, M_gauge g))
      ~cast:(function M_gauge g -> Some g | _ -> None)

  let histogram t ?(labels = []) name =
    get t ~name ~labels ~kind:"histogram"
      ~make:(fun () ->
        let h = Histogram.create () in
        (h, M_histogram h))
      ~cast:(function M_histogram h -> Some h | _ -> None)

  let snapshot t =
    Hashtbl.fold
      (fun (name, labels) metric acc ->
        let value =
          match metric with
          | M_counter c -> Counter_v (Counter.value c)
          | M_gauge g -> Gauge_v (Gauge.value g)
          | M_histogram h ->
            let count = Histogram.count h in
            if count = 0 then
              Histogram_v
                { count = 0; mean = 0.; min = 0.; max = 0.; p50 = 0.;
                  p90 = 0.; p99 = 0. }
            else
              let a = Histogram.sorted h in
              Histogram_v
                {
                  count;
                  mean = Histogram.mean h;
                  min = a.(0);
                  max = a.(count - 1);
                  p50 = Histogram.percentile h 50.;
                  p90 = Histogram.percentile h 90.;
                  p99 = Histogram.percentile h 99.;
                }
        in
        { name; labels; value } :: acc)
      t.table []
    |> List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels))
end

let diff ~before ~after =
  let prior = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match s.value with
      | Counter_v n -> Hashtbl.replace prior (s.name, s.labels) n
      | _ -> ())
    before;
  List.filter_map
    (fun s ->
      match s.value with
      | Counter_v n ->
        let was =
          Option.value ~default:0 (Hashtbl.find_opt prior (s.name, s.labels))
        in
        if n - was = 0 then None
        else Some { s with value = Counter_v (n - was) }
      | _ -> None)
    after

let counter_total ?(where = fun _ -> true) snapshot name =
  List.fold_left
    (fun acc s ->
      match s.value with
      | Counter_v n when s.name = name && where s.labels -> acc + n
      | _ -> acc)
    0 snapshot

let find snapshot name labels =
  let labels = normalize labels in
  List.find_map
    (fun s ->
      if s.name = name && s.labels = labels then Some s.value else None)
    snapshot

let pp_labels ppf labels =
  if labels <> [] then
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         (fun ppf (k, v) -> Format.fprintf ppf "%s=%s" k v))
      labels

let pp_snapshot ppf snapshot =
  List.iter
    (fun s ->
      match s.value with
      | Counter_v n ->
        Format.fprintf ppf "%s%a  %d@." s.name pp_labels s.labels n
      | Gauge_v v ->
        Format.fprintf ppf "%s%a  %g@." s.name pp_labels s.labels v
      | Histogram_v h ->
        Format.fprintf ppf
          "%s%a  count=%d mean=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f \
           max=%.3f@."
          s.name pp_labels s.labels h.count h.mean h.min h.p50 h.p90 h.p99
          h.max)
    snapshot

let labels_to_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let sample_to_json s =
  let base = [ ("metric", Json.String s.name); ("labels", labels_to_json s.labels) ] in
  match s.value with
  | Counter_v n ->
    Json.Obj (base @ [ ("type", Json.String "counter"); ("value", Json.Int n) ])
  | Gauge_v v ->
    Json.Obj (base @ [ ("type", Json.String "gauge"); ("value", Json.Float v) ])
  | Histogram_v h ->
    Json.Obj
      (base
      @ [
          ("type", Json.String "histogram");
          ("count", Json.Int h.count);
          ("mean", Json.Float h.mean);
          ("min", Json.Float h.min);
          ("max", Json.Float h.max);
          ("p50", Json.Float h.p50);
          ("p90", Json.Float h.p90);
          ("p99", Json.Float h.p99);
        ])

let sample_of_json json =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "sample_of_json: bad or missing %S" name)
  in
  let* name = field "metric" Json.to_str in
  let* labels =
    match Json.member "labels" json with
    | Some (Json.Obj fields) ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | (k, Json.String v) :: rest -> conv ((k, v) :: acc) rest
        | (k, _) :: _ -> Error (Printf.sprintf "sample_of_json: label %S" k)
      in
      conv [] fields
    | _ -> Error "sample_of_json: bad or missing labels"
  in
  let labels = normalize labels in
  let* kind = field "type" Json.to_str in
  let* value =
    match kind with
    | "counter" ->
      let* n = field "value" Json.to_int in
      Ok (Counter_v n)
    | "gauge" ->
      let* v = field "value" Json.to_float in
      Ok (Gauge_v v)
    | "histogram" ->
      let* count = field "count" Json.to_int in
      let* mean = field "mean" Json.to_float in
      let* min = field "min" Json.to_float in
      let* max = field "max" Json.to_float in
      let* p50 = field "p50" Json.to_float in
      let* p90 = field "p90" Json.to_float in
      let* p99 = field "p99" Json.to_float in
      Ok (Histogram_v { count; mean; min; max; p50; p90; p99 })
    | k -> Error (Printf.sprintf "sample_of_json: unknown type %S" k)
  in
  Ok { name; labels; value }

let snapshot_to_jsonl snapshot =
  String.concat ""
    (List.map (fun s -> Json.to_string (sample_to_json s) ^ "\n") snapshot)
