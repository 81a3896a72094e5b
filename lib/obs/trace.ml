type msg = {
  proto : string;
  cls : string;
  group : string;
  obj : int;
  page : int;
  src : int;
  dst : int;
  carries_page : bool;
  bytes : int;
}

type kind =
  | Msg of msg
  | Ownership of { obj : int; page : int; owner : int }
  | Note of { category : string; detail : string }

type event = { time : float; node : int; kind : kind }

type t = {
  ring : event array;
  capacity : int;
  mutable next : int;  (* total emitted; ring slot is [next mod capacity] *)
  mutable jsonl : out_channel option;
}

let dummy_event =
  { time = 0.; node = 0; kind = Note { category = ""; detail = "" } }

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity";
  { ring = Array.make capacity dummy_event; capacity; next = 0; jsonl = None }

let set_jsonl t oc = t.jsonl <- oc

(* [obj] and [page] lead the fields of both [msg] and [owner] events,
   so one text pattern selects a page's whole history. *)
let event_to_json ev =
  let kind_fields =
    match ev.kind with
    | Msg m ->
      [
        ("ev", Json.String "msg");
        ("proto", Json.String m.proto);
        ("class", Json.String m.cls);
        ("group", Json.String m.group);
        ("obj", Json.Int m.obj);
        ("page", Json.Int m.page);
        ("src", Json.Int m.src);
        ("dst", Json.Int m.dst);
        ("carries_page", Json.Bool m.carries_page);
        ("bytes", Json.Int m.bytes);
      ]
    | Ownership { obj; page; owner } ->
      [
        ("ev", Json.String "owner");
        ("obj", Json.Int obj);
        ("page", Json.Int page);
        ("owner", Json.Int owner);
      ]
    | Note { category; detail } ->
      [
        ("ev", Json.String "note");
        ("category", Json.String category);
        ("detail", Json.String detail);
      ]
  in
  Json.Obj (("t", Json.Float ev.time) :: ("node", Json.Int ev.node) :: kind_fields)

let event_of_json json =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "event_of_json: bad or missing %S" name)
  in
  let* time = field "t" Json.to_float in
  let* node = field "node" Json.to_int in
  let* ev = field "ev" Json.to_str in
  let* kind =
    match ev with
    | "msg" ->
      let* proto = field "proto" Json.to_str in
      let* cls = field "class" Json.to_str in
      let* group = field "group" Json.to_str in
      let* obj = field "obj" Json.to_int in
      let* page = field "page" Json.to_int in
      let* src = field "src" Json.to_int in
      let* dst = field "dst" Json.to_int in
      let* carries_page = field "carries_page" Json.to_bool in
      let* bytes = field "bytes" Json.to_int in
      Ok (Msg { proto; cls; group; obj; page; src; dst; carries_page; bytes })
    | "owner" ->
      let* obj = field "obj" Json.to_int in
      let* page = field "page" Json.to_int in
      let* owner = field "owner" Json.to_int in
      Ok (Ownership { obj; page; owner })
    | "note" ->
      let* category = field "category" Json.to_str in
      let* detail = field "detail" Json.to_str in
      Ok (Note { category; detail })
    | k -> Error (Printf.sprintf "event_of_json: unknown event %S" k)
  in
  Ok { time; node; kind }

let emit t ~time ~node kind =
  let ev = { time; node; kind } in
  t.ring.(t.next mod t.capacity) <- ev;
  t.next <- t.next + 1;
  match t.jsonl with
  | Some oc ->
    output_string oc (Json.to_string (event_to_json ev));
    output_char oc '\n';
    flush oc
  | None -> ()

let note t ~time ~node ~category fmt =
  match t with
  | None -> Printf.ikfprintf ignore () fmt
  | Some t ->
    Printf.ksprintf
      (fun detail -> emit t ~time ~node (Note { category; detail }))
      fmt

let emitted t = t.next

let events t =
  let n = min t.next t.capacity in
  List.init n (fun i -> t.ring.((t.next - n + i) mod t.capacity))

let pp_event ppf ev =
  match ev.kind with
  | Msg m ->
    Format.fprintf ppf "[%8.3f] %s %-14s %d->%d obj %d page %d group=%s%s (%d B)"
      ev.time m.proto m.cls m.src m.dst m.obj m.page m.group
      (if m.carries_page then " +page" else "")
      m.bytes
  | Ownership { obj; page; owner } ->
    Format.fprintf ppf "[%8.3f] node %d: obj %d page %d owned by %d" ev.time
      ev.node obj page owner
  | Note { category; detail } ->
    Format.fprintf ppf "[%8.3f] node %d: %s: %s" ev.time ev.node category
      detail

let dump ppf t =
  List.iter (fun ev -> Format.fprintf ppf "%a@." pp_event ev) (events t)
