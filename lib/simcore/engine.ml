type t = {
  queue : Event_queue.t;
  (* reused by [step] so the event loop never allocates per event *)
  slot : Event_queue.slot;
  mutable now : float;
  mutable seq : int;
  mutable executed : int;
  mutable cpu_s : float;
}

let create () =
  {
    queue = Event_queue.create ();
    slot = Event_queue.slot ();
    now = 0.;
    seq = 0;
    executed = 0;
    cpu_s = 0.;
  }

let now t = t.now

let schedule_at t ~time k =
  if not (Float.is_finite time) then invalid_arg "Engine.schedule_at: time not finite";
  if time < t.now then invalid_arg "Engine.schedule_at: time in the past";
  Event_queue.add t.queue ~time ~seq:t.seq k;
  t.seq <- t.seq + 1

let schedule t ~delay k =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now +. delay) k

let step t =
  Event_queue.pop_into t.queue t.slot
  && begin
       t.now <- t.slot.Event_queue.s_time;
       t.executed <- t.executed + 1;
       t.slot.Event_queue.s_run ();
       true
     end

let run ?until ?max_events t =
  let wall0 = Sys.time () in
  (* [max_events] bounds the events executed by THIS call: comparing
     against cumulative [t.executed] would make a second bounded [run]
     on the same engine silently execute nothing *)
  let executed0 = t.executed in
  let continue () =
    (match max_events with
    | Some m -> t.executed - executed0 < m
    | None -> true)
    && match until with Some u -> Event_queue.due t.queue u | None -> true
  in
  while continue () && step t do
    ()
  done;
  t.cpu_s <- t.cpu_s +. (Sys.time () -. wall0);
  match until with
  | Some u when not (Event_queue.due t.queue u) -> if u > t.now then t.now <- u
  | _ -> ()

let events_executed t = t.executed

let pending t = Event_queue.size t.queue

type profile = {
  events : int;
  sim_ms : float;
  cpu_s : float;
  cpu_us_per_sim_ms : float;
}

let profile t =
  {
    events = t.executed;
    sim_ms = t.now;
    cpu_s = t.cpu_s;
    cpu_us_per_sim_ms = (if t.now > 0. then t.cpu_s *. 1e6 /. t.now else 0.);
  }
