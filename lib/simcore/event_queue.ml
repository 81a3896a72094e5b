(* A binary min-heap on (time, seq) kept in parallel arrays, so that the
   per-event path neither allocates nor pays a write barrier: times sit
   unboxed in a [Float.Array], seqs and slot numbers in [int array]s.
   Only the closures live in a pointer array, indexed by slot, and each
   slot is written once by [add] and cleared once by the pop that frees
   it.  Sifting moves a hole instead of swapping entries.  All five
   arrays have [capacity] cells and the sift loops touch only positions
   below [len], so they skip bounds checks. *)

type t = {
  mutable times : Float.Array.t;  (* heap position -> time *)
  mutable seqs : int array;  (* heap position -> seq *)
  mutable slots : int array;  (* heap position -> slot of its closure *)
  mutable runs : (unit -> unit) array;  (* slot -> closure *)
  (* free slots as a stack: the [capacity - len] of them sit in
     [free.(0 .. capacity - len - 1)], top last *)
  mutable free : int array;
  mutable len : int;
}

let initial_capacity = 64

let create () =
  {
    times = Float.Array.make initial_capacity 0.;
    seqs = Array.make initial_capacity 0;
    slots = Array.make initial_capacity 0;
    runs = Array.make initial_capacity ignore;
    free = Array.init initial_capacity Fun.id;
    len = 0;
  }

let is_empty t = t.len = 0

let size t = t.len

let capacity t = Array.length t.runs

let grow t =
  let cap = capacity t in
  let times = Float.Array.make (2 * cap) 0. in
  Float.Array.blit t.times 0 times 0 cap;
  t.times <- times;
  t.seqs <- Array.append t.seqs (Array.make cap 0);
  t.slots <- Array.append t.slots (Array.make cap 0);
  t.runs <- Array.append t.runs (Array.make cap ignore);
  (* the queue is full, so the new slots are the only free ones *)
  t.free <- Array.init (2 * cap) (fun i -> if i < cap then cap + i else 0)

(* Copy the entry at heap position [src] to position [dst] of the three
   position-indexed arrays. *)
let[@inline] move times (seqs : int array) (slots : int array) ~src ~dst =
  Float.Array.unsafe_set times dst (Float.Array.unsafe_get times src);
  Array.unsafe_set seqs dst (Array.unsafe_get seqs src);
  Array.unsafe_set slots dst (Array.unsafe_get slots src)

let add t ~time ~seq run =
  if t.len = capacity t then grow t;
  let slot = t.free.(capacity t - t.len - 1) in
  t.runs.(slot) <- run;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  (* the hole starts at the end and rises past every parent that fires
     after the new entry *)
  let i = ref t.len and rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Float.Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      move times seqs slots ~src:parent ~dst:!i;
      i := parent
    end
    else rising := false
  done;
  Float.Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot;
  t.len <- t.len + 1

let due t until = t.len > 0 && Float.Array.get t.times 0 <= until

(* Remove the root and return its closure; the caller reads the root's
   time and seq first.  The last entry fills the hole: it stays at its
   old position [last] while the hole sinks from the root past every
   child that fires before it. *)
let take t =
  let slot = t.slots.(0) in
  let run = t.runs.(slot) in
  t.runs.(slot) <- ignore;
  let last = t.len - 1 in
  t.len <- last;
  t.free.(capacity t - last - 1) <- slot;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let lt = Float.Array.unsafe_get times last
  and ls = Array.unsafe_get seqs last in
  let i = ref 0 and sinking = ref true in
  while !sinking do
    (* [c]: the child of the hole that fires first *)
    let l = (2 * !i) + 1 in
    let c =
      if l + 1 < last then
        let tl = Float.Array.unsafe_get times l
        and tr = Float.Array.unsafe_get times (l + 1) in
        if tr < tl || (tr = tl && Array.unsafe_get seqs (l + 1) < Array.unsafe_get seqs l)
        then l + 1
        else l
      else l
    in
    if c >= last then sinking := false
    else
      let ct = Float.Array.unsafe_get times c in
      if ct < lt || (ct = lt && Array.unsafe_get seqs c < ls) then begin
        move times seqs slots ~src:c ~dst:!i;
        i := c
      end
      else sinking := false
  done;
  move times seqs slots ~src:last ~dst:!i;
  run

type slot = { mutable s_time : float; mutable s_seq : int; mutable s_run : unit -> unit }

let slot () = { s_time = 0.; s_seq = 0; s_run = ignore }

let pop_into t s =
  t.len > 0
  && begin
       s.s_time <- Float.Array.get t.times 0;
       s.s_seq <- t.seqs.(0);
       s.s_run <- take t;
       true
     end

let pop t =
  if t.len = 0 then None
  else
    let time = Float.Array.get t.times 0 and seq = t.seqs.(0) in
    Some (time, seq, take t)
