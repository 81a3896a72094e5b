type supply_mode = Supply_normal | Supply_push
type lock_mode = Lock_plain | Lock_push_first

type lock_result =
  | Lock_done of { returned : Contents.t option }
  | Lock_not_present

type pull_result =
  | Pull_zero_fill
  | Pull_contents of Contents.t
  | Pull_ask_shadow of Ids.obj_id

type lock_op = { max_access : Prot.t; clean : bool; mode : lock_mode }

type manager = {
  m_data_request : page:int -> desired:Prot.t -> unit;
  m_data_unlock : page:int -> desired:Prot.t -> unit;
  m_data_return : page:int -> contents:Contents.t -> dirty:bool -> unit;
}

let null_manager =
  let fail what = failwith ("Emmi.null_manager: unexpected " ^ what) in
  {
    m_data_request = (fun ~page:_ ~desired:_ -> fail "data_request");
    m_data_unlock = (fun ~page:_ ~desired:_ -> fail "data_unlock");
    m_data_return = (fun ~page:_ ~contents:_ ~dirty:_ -> fail "data_return");
  }
