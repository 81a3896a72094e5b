module Rng = Asvm_simcore.Rng

type op = Read | Write
type key_dist = Uniform | Zipf of float

type process =
  | Poisson of { rate_per_s : float }
  | Bursty of {
      on_rate_per_s : float;
      off_rate_per_s : float;
      on_ms : float;
      off_ms : float;
    }

type request = { at_ms : float; node : int; key : int; op : op }

let process_name = function Poisson _ -> "poisson" | Bursty _ -> "bursty"

(* inverse-CDF exponential; [Rng.float rng 1.] is in [0,1), so the
   argument of [log] stays in (0,1] and the sample is finite *)
let exp_sample rng ~rate_per_ms = -.Float.log (1. -. Rng.float rng 1.) /. rate_per_ms

let validate process ~nodes ~keys ~read_fraction =
  if nodes <= 0 then invalid_arg "Arrival.schedule: nodes";
  if keys <= 0 then invalid_arg "Arrival.schedule: keys";
  if read_fraction < 0. || read_fraction > 1. then
    invalid_arg "Arrival.schedule: read_fraction";
  match process with
  | Poisson { rate_per_s } ->
    if rate_per_s <= 0. then invalid_arg "Arrival.schedule: rate_per_s"
  | Bursty { on_rate_per_s; off_rate_per_s; on_ms; off_ms } ->
    if on_rate_per_s <= 0. || off_rate_per_s < 0. then
      invalid_arg "Arrival.schedule: burst rates";
    if on_ms <= 0. || off_ms < 0. then invalid_arg "Arrival.schedule: phases"

let arrival_times rng process ~duration_ms =
  let buf = ref [] in
  (match process with
  | Poisson { rate_per_s } ->
    let rate = rate_per_s /. 1000. in
    let t = ref (exp_sample rng ~rate_per_ms:rate) in
    while !t < duration_ms do
      buf := !t :: !buf;
      t := !t +. exp_sample rng ~rate_per_ms:rate
    done
  | Bursty { on_rate_per_s; off_rate_per_s; on_ms; off_ms } ->
    (* piecewise-constant rate; by memorylessness the residual draw is
       simply resampled when a phase boundary truncates it *)
    let t = ref 0. and phase_start = ref 0. and on = ref true in
    let running = ref true in
    while !running do
      let rate_s = if !on then on_rate_per_s else off_rate_per_s in
      let phase_end = !phase_start +. (if !on then on_ms else off_ms) in
      let arrival =
        if rate_s <= 0. then None
        else
          let dt = exp_sample rng ~rate_per_ms:(rate_s /. 1000.) in
          if !t +. dt < phase_end then Some (!t +. dt) else None
      in
      match arrival with
      | Some at ->
        t := at;
        if at < duration_ms then buf := at :: !buf else running := false
      | None ->
        t := phase_end;
        phase_start := phase_end;
        on := not !on;
        if !t >= duration_ms then running := false
    done);
  Array.of_list (List.rev !buf)

let key_sampler rng ~keys = function
  | Uniform -> fun () -> Rng.int rng keys
  | Zipf alpha ->
    let cum = Array.make keys 0. in
    let total = ref 0. in
    for k = 0 to keys - 1 do
      total := !total +. (1. /. Float.pow (float_of_int (k + 1)) alpha);
      cum.(k) <- !total
    done;
    fun () ->
      (* first rank whose cumulative weight exceeds the draw *)
      let u = Rng.float rng !total in
      let lo = ref 0 and hi = ref (keys - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cum.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo

let schedule process ~seed ~duration_ms ~nodes ~keys ~read_fraction ~key_dist =
  validate process ~nodes ~keys ~read_fraction;
  let root = Rng.create seed in
  let times_rng = Rng.split root in
  let node_rng = Rng.split root in
  let key_rng = Rng.split root in
  let op_rng = Rng.split root in
  let next_key = key_sampler key_rng ~keys key_dist in
  let times = arrival_times times_rng process ~duration_ms in
  Array.map
    (fun at_ms ->
      {
        at_ms;
        node = Rng.int node_rng nodes;
        key = next_key ();
        op = (if Rng.float op_rng 1. < read_fraction then Read else Write);
      })
    times
