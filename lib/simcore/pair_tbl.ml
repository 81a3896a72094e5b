include Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) (c, d) = a = c && b = d

  (* [Hashtbl.hash] spreads keys exactly as the polymorphic table does,
     which keeps iteration order (and so simulated results) unchanged *)
  let hash = Hashtbl.hash
end)
