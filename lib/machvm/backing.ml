module Pair_tbl = Asvm_simcore.Pair_tbl

type t = {
  store :
    obj:Ids.obj_id -> page:int -> contents:Contents.t -> k:(unit -> unit) -> unit;
  fetch :
    obj:Ids.obj_id -> page:int -> k:(Contents.t option -> unit) -> unit;
}

let in_memory () =
  let table : Contents.t Pair_tbl.t = Pair_tbl.create 64 in
  {
    store =
      (fun ~obj ~page ~contents ~k ->
        Pair_tbl.replace table obj page (Contents.snapshot contents);
        k ());
    fetch =
      (fun ~obj ~page ~k ->
        k (Option.map Contents.snapshot (Pair_tbl.find_opt table obj page)));
  }

let none =
  {
    store = (fun ~obj:_ ~page:_ ~contents:_ ~k:_ -> failwith "Backing.none: store");
    fetch = (fun ~obj:_ ~page:_ ~k:_ -> failwith "Backing.none: fetch");
  }
