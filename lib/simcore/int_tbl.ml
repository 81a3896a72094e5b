(* Keys are non-negative ids and page numbers.  [Hashtbl.Make] picks a
   bucket from the hash's low bits, and the identity hash sends a key set
   with a power-of-two stride (a static manager's pages, [page mod N] for
   N nodes) into one bucket.  Adding the key shifted right by 3, 7 and 14
   bits folds its high bits into the low ones, and the sum is monotone,
   so consecutive keys still land in neighbouring buckets; the carries
   break up the strides a plain xor fold keeps aligned. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = (x + (x lsr 3) + (x lsr 7) + (x lsr 14)) land max_int
end)
