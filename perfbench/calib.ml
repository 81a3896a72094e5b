(* The host's current speed, measured by a fixed reference computation.

   On a shared VM the same work takes 10-20 % more or less wall time from
   one second to the next.  run.py times this computation in a process of
   its own just before and just after each repetition and scales each host
   time by [reference_s / measured], which cancels much of that drift:
   over ten 30 s runs the run-to-run spread of host_s fell from 0.105 to
   0.040 on em3d-32 and from 0.106 to 0.019 on paper-cells.  The
   computation is the shape of the simulator's inner loop (a binary-heap
   event queue of closures over a hash table) and must never change, or
   host times stop being comparable across commits. *)

(* Its wall time on the 2-vCPU VM the benchmark was tuned on. *)
let reference_s = 0.036

let events = 100_000

let run () =
  let t0 = Unix.gettimeofday () in
  let cap = 1 lsl 14 in
  let times = Array.make cap 0. and ks = Array.make cap (fun () -> ()) in
  let size = ref 0 in
  let push t k =
    let i = ref !size in
    incr size;
    while !i > 0 && times.((!i - 1) / 2) > t do
      let p = (!i - 1) / 2 in
      times.(!i) <- times.(p);
      ks.(!i) <- ks.(p);
      i := p
    done;
    times.(!i) <- t;
    ks.(!i) <- k
  in
  let pop () =
    let k = ks.(0) and t = times.(0) in
    decr size;
    let lt = times.(!size) and lk = ks.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else
        let c = if l + 1 < !size && times.(l + 1) < times.(l) then l + 1 else l in
        if times.(c) < lt then begin
          times.(!i) <- times.(c);
          ks.(!i) <- ks.(c);
          i := c
        end
        else sifting := false
    done;
    times.(!i) <- lt;
    ks.(!i) <- lk;
    (t, k)
  in
  let table = Hashtbl.create 4096 in
  let now = ref 0. and fired = ref 0 in
  let rec event key () =
    incr fired;
    let v = 1 + Option.value ~default:0 (Hashtbl.find_opt table key) in
    Hashtbl.replace table key v;
    if !fired < events then
      push (!now +. float_of_int ((key * 7919) land 1023)) (event (((key * 31) + v) land 8191))
  in
  for i = 0 to 999 do
    push (float_of_int i) (event i)
  done;
  while !size > 0 do
    let t, k = pop () in
    now := t;
    k ()
  done;
  Unix.gettimeofday () -. t0
