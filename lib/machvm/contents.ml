(* Copy-on-write page store.

   A [t] is a handle onto a shared, refcounted word buffer. Taking a
   snapshot ([copy]) is an O(1) refcount bump; the O(words) copy is
   deferred until a [set] hits a buffer someone else can still see
   (refcount > 1, or the interned zero page). This mirrors the paper's
   message economy — page contents move only when a request demands
   them — applied to the simulator's own hot path: transfers, shadow
   pushes and pager round-trips all "copy" pages far more often than
   anyone writes them afterwards.

   The refcount over-approximates sharing: handles are reclaimed by the
   GC, not finalized, so a dropped snapshot still counts until a writer
   materializes away from the buffer. Over-approximation is safe — it
   can only cause an extra copy, never aliasing. *)

type buf = {
  mutable data : int array;
  (* handles known to share this buffer; stale-high after handles are
     GC'd, which at worst costs one extra materialization *)
  mutable refs : int;
  (* interned zero page: immortal, never written in place, shared by
     every [zero] handle of this word size in the domain *)
  frozen : bool;
  (* checksum memo for the current write generation; any [set]
     invalidates it, so a valid cached sum always matches the data *)
  mutable sum : int;
  mutable sum_valid : bool;
  (* [true] implies the buffer is all zero (never the converse) *)
  mutable known_zero : bool;
}

type t = { mutable buf : buf }

type stats = {
  snapshots : int;
  cow_materializations : int;
  checksum_cache_hits : int;
}

(* Counters and the zero-page intern table are domain-local: parallel
   runner cells each live entirely inside one domain, so per-domain
   state keeps both the counters race-free and the per-cell metric
   deltas exact. *)
type dstate = {
  mutable s_snapshots : int;
  mutable s_cow : int;
  mutable s_sum_hits : int;
  zeros : (int, buf) Hashtbl.t; (* words -> interned zero buffer *)
}

let dstate_key =
  Domain.DLS.new_key (fun () ->
      { s_snapshots = 0; s_cow = 0; s_sum_hits = 0; zeros = Hashtbl.create 4 })

let dstate () = Domain.DLS.get dstate_key

let stats () =
  let d = dstate () in
  {
    snapshots = d.s_snapshots;
    cow_materializations = d.s_cow;
    checksum_cache_hits = d.s_sum_hits;
  }

let zero ~words =
  if words <= 0 then invalid_arg "Contents.zero: words <= 0";
  let d = dstate () in
  let b =
    match Hashtbl.find_opt d.zeros words with
    | Some b -> b
    | None ->
      let b =
        {
          data = Array.make words 0;
          refs = 1;
          frozen = true;
          sum = 0;
          sum_valid = false;
          known_zero = true;
        }
      in
      Hashtbl.add d.zeros words b;
      b
  in
  { buf = b }

let words t = Array.length t.buf.data

let get t i = t.buf.data.(i)

(* First write into a shared (or interned-zero) buffer: pay the word
   copy that [copy] deferred. *)
let materialize t =
  let b = t.buf in
  if not b.frozen then b.refs <- b.refs - 1;
  t.buf <-
    {
      data = Array.copy b.data;
      refs = 1;
      frozen = false;
      sum = 0;
      sum_valid = false;
      known_zero = false;
    };
  let d = dstate () in
  d.s_cow <- d.s_cow + 1

let set t i v =
  (match t.buf with
  | b when b.frozen || b.refs > 1 -> materialize t
  | _ -> ());
  let b = t.buf in
  b.data.(i) <- v;
  b.sum_valid <- false;
  b.known_zero <- false

let snapshot t =
  let b = t.buf in
  if not b.frozen then b.refs <- b.refs + 1;
  let d = dstate () in
  d.s_snapshots <- d.s_snapshots + 1;
  { buf = b }

let copy = snapshot

(* monomorphic int loops: polymorphic [( = )] and the fold closure both
   sit on page-copy/validation paths, and the generic versions cost a
   C call per word (and a closure allocation for the fold) *)
let equal ta tb =
  ta == tb || ta.buf == tb.buf
  ||
  let a = ta.buf.data and b = tb.buf.data in
  let n = Array.length a in
  n = Array.length b
  &&
  let rec eq_from i = i >= n || (a.(i) = b.(i) && eq_from (i + 1)) in
  eq_from 0

let is_zero t =
  let b = t.buf in
  b.known_zero
  ||
  let a = b.data in
  let n = Array.length a in
  let rec zero_from i = i >= n || (a.(i) = 0 && zero_from (i + 1)) in
  let z = zero_from 0 in
  if z then b.known_zero <- true;
  z

let checksum t =
  let b = t.buf in
  if b.sum_valid then begin
    let d = dstate () in
    d.s_sum_hits <- d.s_sum_hits + 1;
    b.sum
  end
  else begin
    let a = b.data in
    let acc = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      acc := (!acc * 1000003) lxor a.(i)
    done;
    b.sum <- !acc;
    b.sum_valid <- true;
    !acc
  end
