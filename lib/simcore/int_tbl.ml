(* Keys are non-negative ids and page numbers, so the key itself, with
   the sign bit cleared, is a good enough bucket index and needs no call
   into the runtime's generic hash. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x land max_int
end)
