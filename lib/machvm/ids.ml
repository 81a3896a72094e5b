type obj_id = int
type task_id = int

module Alloc = struct
  type t = { mutable next : int }

  let create () = { next = 1 }

  let fresh t =
    let id = t.next in
    t.next <- id + 1;
    id
end
