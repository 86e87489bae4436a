type error =
  | Full
  | Closed
  | Wrong_domain of Domain_id.t

let error_to_string = function
  | Full -> "channel full"
  | Closed -> "channel closed"
  | Wrong_domain id -> Printf.sprintf "wrong domain %s for this endpoint" (Domain_id.to_string id)

type 'a t = {
  clock : Cycles.Clock.t;
  sender_pd : Pdomain.t;
  sender : Domain_id.t;
  receiver : Domain_id.t;
  capacity : int;
  queue : 'a Queue.t;
  ring_addr : int;
  label : string;
  mutable closed : bool;
  mutable sent : int;
  mutable received : int;
  mutable dropped : int;
}

let counter = ref 0

let create ~clock ~sender ~receiver ~capacity ?label () =
  if capacity <= 0 then invalid_arg "Channel.create: capacity must be positive";
  incr counter;
  let label = match label with Some l -> l | None -> Printf.sprintf "chan#%d" !counter in
  {
    clock;
    sender_pd = sender;
    sender = Pdomain.id sender;
    receiver = Pdomain.id receiver;
    capacity;
    queue = Queue.create ();
    ring_addr = Cycles.Clock.alloc_addr clock ~bytes:(capacity * 16);
    label;
    closed = false;
    sent = 0;
    received = 0;
    dropped = 0;
  }

let endpoint_check expected =
  let caller = Tls.current () in
  if Domain_id.is_kernel caller || Domain_id.equal caller expected then Ok ()
  else Error (Wrong_domain caller)

let charge_slot t index =
  Cycles.Clock.charge t.clock (Alu 3);
  Cycles.Clock.touch t.clock (t.ring_addr + (index mod t.capacity * 16)) ~bytes:16

let send t own =
  (* Ownership transfers before any outcome is known. *)
  let v = Linear.Own.consume own in
  Cycles.Clock.charge t.clock Tls_lookup;
  match endpoint_check t.sender with
  | Error e -> Error e
  | Ok () ->
    charge_slot t t.sent;
    if t.closed then begin
      t.dropped <- t.dropped + 1;
      Error Closed
    end
    else if Queue.length t.queue >= t.capacity then begin
      t.dropped <- t.dropped + 1;
      Error Full
    end
    else begin
      Queue.push v t.queue;
      t.sent <- t.sent + 1;
      Ok ()
    end

let send_exn t own =
  match send t own with
  | Error Full ->
    let msg = Printf.sprintf "channel %s overflow" t.label in
    (* The overflow is the *sender's* fault. When the panic unwinds to
       the sending domain's own execute boundary it is attributed
       there; but when the caller is the kernel (or another domain
       relaying on the sender's behalf), the unwind would surface only
       as a generic engine error — so charge the sending domain's panic
       counter directly before unwinding. *)
    (if not (Domain_id.equal (Tls.current ()) t.sender) then
       match Pdomain.state t.sender_pd with
       | Running -> Pdomain.mark_failed t.sender_pd msg
       | Failed _ | Destroyed -> ());
    Panic.panic msg
  | (Ok () | Error (Closed | Wrong_domain _)) as r -> r

let recv t =
  Cycles.Clock.charge t.clock Tls_lookup;
  match endpoint_check t.receiver with
  | Error e -> Error e
  | Ok () ->
    charge_slot t t.received;
    if Queue.is_empty t.queue then Ok None
    else begin
      let v = Queue.pop t.queue in
      t.received <- t.received + 1;
      Ok (Some (Linear.Own.create ~label:(t.label ^ ".msg") v))
    end

let close t = t.closed <- true
let length t = Queue.length t.queue
let capacity t = t.capacity
let sent t = t.sent
let received t = t.received
let dropped t = t.dropped
