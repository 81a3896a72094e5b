type t = { engine : Engine.t; mutable free_at : float }

let create engine = { engine; free_at = 0. }

let submit t ~service k =
  if not (Float.is_finite service) || service < 0. then
    invalid_arg "Station.submit: negative service";
  let now = Engine.now t.engine in
  let start = Float.max now t.free_at in
  t.free_at <- start +. service;
  Engine.schedule_at t.engine ~time:t.free_at k

let busy_until t = Float.max t.free_at (Engine.now t.engine)
