(* O(1) LRU: a hash table from page to slot over a doubly-linked list of
   slots kept in recency order (head = most recent, tail = the eviction
   victim).  Every operation is a table probe plus link surgery — no
   scans, so the cost no longer grows with capacity.  The links are slot
   numbers in [int] arrays, so moving an entry to the front allocates
   nothing and stores no pointer into long-lived memory.  The slot
   arrays grow on use, up to the capacity. *)

module Int_tbl = Asvm_simcore.Int_tbl

let none = -1

type 'a t = {
  capacity : int;
  table : int Int_tbl.t;  (* page -> slot *)
  mutable pages : int array;  (* slot -> page *)
  mutable values : 'a array;  (* slot -> value; empty before the first put *)
  mutable prev : int array;  (* slot -> the next more recent slot *)
  mutable next : int array;
      (* slot -> the next less recent slot; also chains [free] *)
  mutable head : int;
  mutable tail : int;
  mutable used : int;  (* slots ever handed out *)
  mutable free : int;  (* removed slots, chained through [next] *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Hint_cache.create: negative capacity";
  {
    capacity;
    table = Int_tbl.create (max 8 capacity);
    pages = [||];
    values = [||];
    prev = [||];
    next = [||];
    head = none;
    tail = none;
    used = 0;
    free = none;
  }

let size t = Int_tbl.length t.table

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p = none then t.head <- n else t.next.(p) <- n;
  if n = none then t.tail <- p else t.prev.(n) <- p

let push_front t s =
  t.prev.(s) <- none;
  t.next.(s) <- t.head;
  if t.head = none then t.tail <- s else t.prev.(t.head) <- s;
  t.head <- s

let move_to_front t s =
  if t.head <> s then begin
    unlink t s;
    push_front t s
  end

(* A slot for a new entry holding [value]: a removed one, or the next
   never-used one, doubling the arrays when they are full. *)
let fresh_slot t value =
  if t.free <> none then begin
    let s = t.free in
    t.free <- t.next.(s);
    t.values.(s) <- value;
    s
  end
  else begin
    let len = Array.length t.pages in
    if t.used = len then begin
      let grow a fill =
        let b = Array.make (min t.capacity (max 8 (2 * len))) fill in
        Array.blit a 0 b 0 len;
        b
      in
      t.pages <- grow t.pages 0;
      t.values <- grow t.values value;
      t.prev <- grow t.prev none;
      t.next <- grow t.next none
    end;
    let s = t.used in
    t.used <- s + 1;
    t.values.(s) <- value;
    s
  end

let put t ~page value =
  if t.capacity = 0 then ()
  else
    match Int_tbl.find t.table page with
    | s ->
      t.values.(s) <- value;
      move_to_front t s
    | exception Not_found ->
      let s =
        if Int_tbl.length t.table >= t.capacity then begin
          (* full: the least recently used entry's slot takes the page *)
          let victim = t.tail in
          unlink t victim;
          Int_tbl.remove t.table t.pages.(victim);
          t.values.(victim) <- value;
          victim
        end
        else fresh_slot t value
      in
      t.pages.(s) <- page;
      push_front t s;
      Int_tbl.replace t.table page s

let find t ~page =
  match Int_tbl.find t.table page with
  | s ->
    move_to_front t s;
    Some t.values.(s)
  | exception Not_found -> None

let remove t ~page =
  match Int_tbl.find t.table page with
  | s ->
    unlink t s;
    Int_tbl.remove t.table page;
    t.next.(s) <- t.free;
    t.free <- s
  | exception Not_found -> ()
