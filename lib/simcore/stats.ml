type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  stddev : float;
  total : float;
}

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.3f min=%.3f max=%.3f stddev=%.3f" s.n s.mean
    s.min s.max s.stddev

module Tally = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

  let add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = t.mean
  let total t = t.total

  let summary t =
    let stddev = if t.n > 1 then sqrt (t.m2 /. float_of_int (t.n - 1)) else 0. in
    let min = if t.n = 0 then 0. else t.min in
    let max = if t.n = 0 then 0. else t.max in
    { n = t.n; mean = t.mean; min; max; stddev; total = t.total }
end

module Counters = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let incr ?(by = 1) t name =
    match Hashtbl.find_opt t name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t name (ref by)

  let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

  let to_list t =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let of_list l =
    let t = create () in
    List.iter (fun (name, by) -> incr ~by t name) l;
    t
end

module Series = struct
  type t = { name : string; mutable points : (float * float) list }

  let create name = { name; points = [] }
  let name t = t.name
  let add t ~x ~y = t.points <- (x, y) :: t.points
  let points t = List.rev t.points

  let linear_fit t =
    let pts = t.points in
    let n = List.length pts in
    if n < 2 then invalid_arg "Series.linear_fit: need at least two points";
    let nf = float_of_int n in
    let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0. pts in
    let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0. pts in
    let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0. pts in
    let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0. pts in
    let denom = (nf *. sxx) -. (sx *. sx) in
    if denom = 0. then invalid_arg "Series.linear_fit: degenerate x values";
    let slope = ((nf *. sxy) -. (sx *. sy)) /. denom in
    let intercept = (sy -. (slope *. sx)) /. nf in
    (intercept, slope)
end
