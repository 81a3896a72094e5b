type inheritance = Inherit_none | Inherit_share | Inherit_copy

type entry = {
  start : int;
  npages : int;
  mutable obj : Ids.obj_id;
  mutable obj_offset : int;
  mutable inherit_ : inheritance;
  mutable needs_copy : bool;
  mutable max_prot : Prot.t;
}

(* Few entries per task in practice, so a sorted list keeps the code
   simple; lookup cost is irrelevant next to simulated fault latencies. *)
type t = { mutable entries : entry list }

let create () = { entries = [] }

let overlaps a_start a_n b_start b_n =
  a_start < b_start + b_n && b_start < a_start + a_n

let map t ~start ~npages ~obj ~obj_offset ~inherit_ =
  if npages <= 0 then invalid_arg "Address_map.map: npages <= 0";
  if start < 0 then invalid_arg "Address_map.map: negative start";
  List.iter
    (fun e ->
      if overlaps start npages e.start e.npages then
        invalid_arg "Address_map.map: overlapping range")
    t.entries;
  let e =
    {
      start;
      npages;
      obj;
      obj_offset;
      inherit_;
      needs_copy = false;
      max_prot = Prot.Read_write;
    }
  in
  t.entries <-
    List.sort (fun a b -> Int.compare a.start b.start) (e :: t.entries);
  e

let unmap t ~start =
  t.entries <- List.filter (fun e -> e.start <> start) t.entries

let lookup t ~vpage =
  List.find_opt (fun e -> vpage >= e.start && vpage < e.start + e.npages) t.entries

let entries t = t.entries

let find_space t ~hint ~npages =
  let rec search candidate = function
    | [] -> candidate
    | e :: rest ->
      if e.start + e.npages <= candidate then search candidate rest
      else if overlaps candidate npages e.start e.npages then
        search (e.start + e.npages) rest
      else candidate
  in
  search (Stdlib.max hint 0) t.entries
