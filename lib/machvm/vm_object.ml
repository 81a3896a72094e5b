module Int_tbl = Asvm_simcore.Int_tbl

type frame = {
  mutable contents : Contents.t;
  mutable dirty : bool;
  mutable access : Prot.t;
  mutable wired : bool;
}

type t = {
  id : Ids.obj_id;
  size_pages : int;
  temporary : bool;
  mutable shadow : (Ids.obj_id * int) option;
  mutable copy : Ids.obj_id option;
  mutable version : int;
  page_versions : int Int_tbl.t;
  mutable manager : Emmi.manager option;
  resident : frame Int_tbl.t;
}

let create ~id ~size_pages ~temporary ?shadow () =
  if size_pages <= 0 then invalid_arg "Vm_object.create: size_pages <= 0";
  {
    id;
    size_pages;
    temporary;
    shadow;
    copy = None;
    version = 0;
    page_versions = Int_tbl.create 8;
    manager = None;
    resident = Int_tbl.create 16;
  }

let frame t page = Int_tbl.find_opt t.resident page
let is_resident t page = Int_tbl.mem t.resident page

let install t ~page fr =
  if page < 0 || page >= t.size_pages then
    invalid_arg "Vm_object.install: page out of range";
  Int_tbl.replace t.resident page fr

let remove t ~page = Int_tbl.remove t.resident page

let resident_pages t =
  Int_tbl.fold (fun page _ acc -> page :: acc) t.resident [] |> List.sort compare

let resident_count t = Int_tbl.length t.resident

let page_version t page =
  match Int_tbl.find_opt t.page_versions page with Some v -> v | None -> 0

let set_page_version t page v = Int_tbl.replace t.page_versions page v

let needs_push t page = page_version t page <> t.version

let has_manager t = Option.is_some t.manager
