module Int_tbl = Asvm_simcore.Int_tbl

type translation = { backing_obj : Ids.obj_id; index : int; mutable prot : Prot.t }

type t = translation Int_tbl.t

let create () : t = Int_tbl.create 64

let enter t ~vpage ~backing_obj ~index ~prot =
  Int_tbl.replace t vpage { backing_obj; index; prot }

let lookup t ~vpage = Int_tbl.find_opt t vpage

let remove t ~vpage = Int_tbl.remove t vpage

let vpages t = Int_tbl.fold (fun vpage _ acc -> vpage :: acc) t [] |> List.sort compare
