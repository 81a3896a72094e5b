(* O(1) LRU: a hash table over an intrusive doubly-linked list kept in
   recency order (head = most recent, tail = the eviction victim).
   Every operation is a table probe plus pointer surgery — no scans, so
   the cost no longer grows with capacity. *)

module Int_tbl = Asvm_simcore.Int_tbl

type 'a node = {
  page : int;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  capacity : int;
  table : 'a node Int_tbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Hint_cache.create: negative capacity";
  {
    capacity;
    table = Int_tbl.create (max 8 capacity);
    head = None;
    tail = None;
  }

let size t = Int_tbl.length t.table

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let move_to_front t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
    unlink t n;
    push_front t n

let put t ~page value =
  if t.capacity = 0 then ()
  else
    match Int_tbl.find_opt t.table page with
    | Some n ->
      n.value <- value;
      move_to_front t n
    | None ->
      if Int_tbl.length t.table >= t.capacity then
        (match t.tail with
        | Some victim ->
          unlink t victim;
          Int_tbl.remove t.table victim.page
        | None -> ());
      let n = { page; value; prev = None; next = None } in
      push_front t n;
      Int_tbl.replace t.table page n

let find t ~page =
  match Int_tbl.find_opt t.table page with
  | Some n ->
    move_to_front t n;
    Some n.value
  | None -> None

let remove t ~page =
  match Int_tbl.find_opt t.table page with
  | Some n ->
    unlink t n;
    Int_tbl.remove t.table page
  | None -> ()
