(* [Stdlib.Hashtbl]'s chained table specialised to [int] keys: the same
   bucket array (a power of two, at least 16), the same insertion at the
   head of a bucket and the same order-preserving doubling, so bindings
   sit in the buckets and iterate in the order [Hashtbl.Make] with this
   hash gives them.  Only the hash and the key test change: both are
   inline integer code here, where the functor called them through
   closures.

   Keys are non-negative ids and page numbers.  The bucket is the hash's
   low bits, and the identity hash sends a key set with a power-of-two
   stride (a static manager's pages, [page mod N] for N nodes) into one
   bucket.  Adding the key shifted right by 3, 7 and 14 bits folds its
   high bits into the low ones, and the sum is monotone, so consecutive
   keys still land in neighbouring buckets; the carries break up the
   strides a plain xor fold keeps aligned. *)

type 'a bucket =
  | Empty
  | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable data : 'a bucket array;
  mutable initial_size : int;
      (* negative while [iter] or [fold] runs: a resize then copies the
         cells instead of relinking them, so the traversal keeps walking
         the old chains *)
}

let[@inline] index h key =
  (key + (key lsr 3) + (key lsr 7) + (key lsr 14))
  land (Array.length h.data - 1)

let rec power_2_above x n =
  if x >= n then x
  else if x * 2 > Sys.max_array_length then x
  else power_2_above (x * 2) n

let create n =
  let s = power_2_above 16 n in
  { size = 0; data = Array.make s Empty; initial_size = s }

let length h = h.size

let clear h =
  if h.size > 0 then begin
    h.size <- 0;
    Array.fill h.data 0 (Array.length h.data) Empty
  end

let reset h =
  let s = abs h.initial_size in
  if Array.length h.data = s then clear h
  else begin
    h.size <- 0;
    h.data <- Array.make s Empty
  end

(* Double the buckets, appending each old chain's cells in order to the
   tails of the new chains. *)
let resize h =
  let odata = h.data in
  let nsize = Array.length odata * 2 in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty in
    let tails = Array.make nsize Empty in
    let inplace = h.initial_size >= 0 in
    h.data <- ndata;
    let rec insert = function
      | Empty -> ()
      | Cons { key; data; next } as cell ->
        let cell = if inplace then cell else Cons { key; data; next = Empty } in
        let i = index h key in
        (match tails.(i) with
        | Empty -> ndata.(i) <- cell
        | Cons tail -> tail.next <- cell);
        tails.(i) <- cell;
        insert next
    in
    Array.iter insert odata;
    if inplace then
      Array.iter (function Empty -> () | Cons tail -> tail.next <- Empty) tails
  end

let add h key data =
  let i = index h key in
  h.data.(i) <- Cons { key; data; next = h.data.(i) };
  h.size <- h.size + 1;
  if h.size > Array.length h.data lsl 1 then resize h

let rec replace_bucket key data = function
  | Empty -> true
  | Cons c ->
    if c.key = key then (c.data <- data; false)
    else replace_bucket key data c.next

let replace h key data =
  let i = index h key in
  let l = h.data.(i) in
  if replace_bucket key data l then begin
    h.data.(i) <- Cons { key; data; next = l };
    h.size <- h.size + 1;
    if h.size > Array.length h.data lsl 1 then resize h
  end

let rec remove_bucket h i key prec = function
  | Empty -> ()
  | Cons { key = k; next; _ } as c ->
    if k = key then begin
      h.size <- h.size - 1;
      match prec with Empty -> h.data.(i) <- next | Cons p -> p.next <- next
    end
    else remove_bucket h i key c next

let remove h key =
  let i = index h key in
  remove_bucket h i key Empty h.data.(i)

let rec find_bucket key = function
  | Empty -> None
  | Cons { key = k; data; next } ->
    if k = key then Some data else find_bucket key next

let find_opt h key = find_bucket key h.data.(index h key)

let rec find_exn key = function
  | Empty -> raise Not_found
  | Cons { key = k; data; next } ->
    if k = key then data else find_exn key next

let find h key = find_exn key h.data.(index h key)

let rec mem_bucket key = function
  | Empty -> false
  | Cons { key = k; next; _ } -> k = key || mem_bucket key next

let mem h key = mem_bucket key h.data.(index h key)

(* Mark a traversal for its duration (see [initial_size]); a nested one
   leaves the mark to the outermost. *)
let traverse h f =
  let outer = h.initial_size >= 0 in
  if outer then h.initial_size <- -h.initial_size;
  match f h.data with
  | r ->
    if outer then h.initial_size <- -h.initial_size;
    r
  | exception e ->
    if outer then h.initial_size <- -h.initial_size;
    raise e

let iter f h =
  let rec go = function
    | Empty -> ()
    | Cons { key; data; next } ->
      f key data;
      go next
  in
  traverse h (Array.iter go)

let fold f h init =
  let rec go acc = function
    | Empty -> acc
    | Cons { key; data; next } -> go (f key data acc) next
  in
  traverse h (Array.fold_left go init)

let stats h =
  let rec len n = function Empty -> n | Cons { next; _ } -> len (n + 1) next in
  let lengths = Array.map (len 0) h.data in
  let mbl = Array.fold_left max 0 lengths in
  let histo = Array.make (mbl + 1) 0 in
  Array.iter (fun l -> histo.(l) <- histo.(l) + 1) lengths;
  {
    Hashtbl.num_bindings = h.size;
    num_buckets = Array.length h.data;
    max_bucket_length = mbl;
    bucket_histogram = histo;
  }
