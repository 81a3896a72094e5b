(* [Stdlib.Hashtbl]'s chained table specialised to keys that are pairs
   of [int]s, stored unboxed in the bucket cells.  Buckets, growth and
   iteration order are those of [Hashtbl.Make] hashing the pair with
   [Hashtbl.hash] (see int_tbl.ml for the layout), so results that
   depend on iteration order are unchanged; a lookup allocates no key
   tuple and calls no C primitive. *)

type 'a bucket =
  | Empty
  | Cons of { k1 : int; k2 : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable data : 'a bucket array;
  mutable initial_size : int;  (* negative while [iter] or [fold] runs *)
}

(* [Hashtbl.hash (a, b)] as the runtime computes it (runtime/hash.c):
   MurmurHash3's 32-bit mix of the pair's header word (size 2, tag 0,
   colour bits cleared: 2048) and of each field's tagged word folded to
   32 bits, then the final mix, truncated to 30 bits. *)
let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land 0xFFFF_FFFF

let[@inline] mix h d =
  let d = d * 0xcc9e2d51 land 0xFFFF_FFFF in
  let d = rotl32 d 15 * 0x1b873593 land 0xFFFF_FFFF in
  ((rotl32 (h lxor d) 13 * 5) + 0xe6546b64) land 0xFFFF_FFFF

(* the word [2x + 1] folded as [caml_hash_mix_intnat] folds it: its high
   half and its sign xored into its low half *)
let[@inline] mix_int h x =
  mix h ((x asr 31) lxor (x asr 62) lxor ((x lsl 1) lor 1) land 0xFFFF_FFFF)

let header = mix 0 2048

let hash a b =
  let h = mix_int (mix_int header a) b in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land 0xFFFF_FFFF in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land 0xFFFF_FFFF in
  (h lxor (h lsr 16)) land 0x3FFF_FFFF

let[@inline] index h a b = hash a b land (Array.length h.data - 1)

let rec power_2_above x n =
  if x >= n then x
  else if x * 2 > Sys.max_array_length then x
  else power_2_above (x * 2) n

let create n =
  let s = power_2_above 16 n in
  { size = 0; data = Array.make s Empty; initial_size = s }

let length h = h.size

let reset h =
  let s = abs h.initial_size in
  if Array.length h.data = s then begin
    if h.size > 0 then begin
      h.size <- 0;
      Array.fill h.data 0 s Empty
    end
  end
  else begin
    h.size <- 0;
    h.data <- Array.make s Empty
  end

let copy_bucket = function
  | Empty -> Empty
  | Cons { k1; k2; data; next } ->
    let first = Cons { k1; k2; data; next } in
    let rec go prec = function
      | Empty -> ()
      | Cons { k1; k2; data; next } ->
        let cell = Cons { k1; k2; data; next } in
        (match prec with Cons p -> p.next <- cell | Empty -> assert false);
        go cell next
    in
    go first next;
    first

let copy h = { h with data = Array.map copy_bucket h.data }

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
      | Cons { k1; k2; data; next } as cell ->
        let cell =
          if inplace then cell else Cons { k1; k2; data; next = Empty }
        in
        let i = index h k1 k2 in
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

let add h a b data =
  let i = index h a b in
  h.data.(i) <- Cons { k1 = a; k2 = b; data; next = h.data.(i) };
  h.size <- h.size + 1;
  if h.size > Array.length h.data lsl 1 then resize h

let rec replace_bucket a b data = function
  | Empty -> true
  | Cons c ->
    if c.k1 = a && c.k2 = b then (c.data <- data; false)
    else replace_bucket a b data c.next

let replace h a b data =
  let i = index h a b in
  let l = h.data.(i) in
  if replace_bucket a b data l then begin
    h.data.(i) <- Cons { k1 = a; k2 = b; data; next = l };
    h.size <- h.size + 1;
    if h.size > Array.length h.data lsl 1 then resize h
  end

let rec remove_bucket h i a b prec = function
  | Empty -> ()
  | Cons { k1; k2; next; _ } as c ->
    if k1 = a && k2 = b then begin
      h.size <- h.size - 1;
      match prec with Empty -> h.data.(i) <- next | Cons p -> p.next <- next
    end
    else remove_bucket h i a b c next

let remove h a b =
  let i = index h a b in
  remove_bucket h i a b Empty h.data.(i)

let rec find_bucket a b = function
  | Empty -> None
  | Cons { k1; k2; data; next } ->
    if k1 = a && k2 = b then Some data else find_bucket a b next

let find_opt h a b = find_bucket a b h.data.(index h a b)

let rec mem_bucket a b = function
  | Empty -> false
  | Cons { k1; k2; next; _ } -> (k1 = a && k2 = b) || mem_bucket a b next

let mem h a b = mem_bucket a b h.data.(index h a b)

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
    | Cons { k1; k2; data; next } ->
      f k1 k2 data;
      go next
  in
  traverse h (Array.iter go)

let fold f h init =
  let rec go acc = function
    | Empty -> acc
    | Cons { k1; k2; data; next } -> go (f k1 k2 data acc) next
  in
  traverse h (Array.fold_left go init)
