type t = {
  clock : Cycles.Clock.t;
  external_ip : int;
  first_port : int;
  last_port : int;
  forward : (Flow.t, int) Hashtbl.t;   (* internal flow -> external port *)
  reverse : (int, Flow.t) Hashtbl.t;
  table_addr : int;
  mutable next_port : int;
  mutable drops : int;
  mutable subscribers : (unit -> unit) list;  (* registration order *)
}

let create ~clock ~external_ip ?(first_port = 10_000) ?(last_port = 60_000) () =
  if first_port > last_port then invalid_arg "Nat.create: empty port range";
  if first_port < 1 || last_port > 0xffff then invalid_arg "Nat.create: port out of range";
  {
    clock;
    external_ip;
    first_port;
    last_port;
    forward = Hashtbl.create 1024;
    reverse = Hashtbl.create 1024;
    table_addr = Cycles.Clock.alloc_addr clock ~bytes:(64 * 1024);
    next_port = first_port;
    drops = 0;
    subscribers = [];
  }

let on_mutate t f = t.subscribers <- t.subscribers @ [ f ]
let fire t = List.iter (fun f -> f ()) t.subscribers

let range_size t = t.last_port - t.first_port + 1
let active_mappings t = Hashtbl.length t.forward
let ports_available t = range_size t - active_mappings t
let drops t = t.drops

let touch_entry t key =
  Cycles.Clock.touch t.clock
    (t.table_addr + (key land 0xFFFF * 16 mod (64 * 1024)))
    ~bytes:16

(* Next free port, scanning at most one full cycle of the range. *)
let allocate_port t =
  let rec scan attempts candidate =
    if attempts = 0 then None
    else if Hashtbl.mem t.reverse candidate then
      scan (attempts - 1)
        (if candidate = t.last_port then t.first_port else candidate + 1)
    else Some candidate
  in
  scan (range_size t) t.next_port

let translate t flow =
  Cycles.Clock.charge t.clock (Alu 8);
  touch_entry t (Flow.hash flow);
  match Hashtbl.find_opt t.forward flow with
  | Some port -> Some (t.external_ip, port)
  | None -> (
    match allocate_port t with
    | None -> None
    | Some port ->
      Hashtbl.replace t.forward flow port;
      Hashtbl.replace t.reverse port flow;
      t.next_port <- (if port = t.last_port then t.first_port else port + 1);
      touch_entry t port;
      Some (t.external_ip, port))

let translate_back t ~port =
  Cycles.Clock.charge t.clock (Alu 4);
  touch_entry t port;
  Hashtbl.find_opt t.reverse port

let remove t flow =
  match Hashtbl.find_opt t.forward flow with
  | None -> false
  | Some port ->
    Hashtbl.remove t.forward flow;
    Hashtbl.remove t.reverse port;
    fire t;
    true

let flush t =
  let n = Hashtbl.length t.forward in
  Hashtbl.reset t.forward;
  Hashtbl.reset t.reverse;
  t.next_port <- t.first_port;
  fire t;
  n

let stage t =
  Stage.filter ~name:"snat" ~access:Stage.Cols
    ~hooks:[ on_mutate t ]
    (fun engine batch i p ->
      Engine.touch_packet engine p ~off:Packet.eth_header_bytes
        ~bytes:(Packet.ipv4_header_bytes + 4);
      let flow = Batch.flow batch i in
      match translate t flow with
      | None ->
        t.drops <- t.drops + 1;
        false
      | Some (ip, port) ->
        Batch.set_col_src_ip batch i ip;
        Batch.set_col_src_port batch i port;
        Engine.touch_packet_write engine p ~off:(Packet.eth_header_bytes + 12) ~bytes:8;
        true)
