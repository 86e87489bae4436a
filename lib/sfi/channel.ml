type error =
  | Full
  | Wrong_domain of Domain_id.t

(* Nothing receives, so a message is dropped once its handle is
   consumed and [sent] is the queue's length. *)
type 'a t = {
  clock : Cycles.Clock.t;
  sender_pd : Pdomain.t;
  sender : Domain_id.t;
  capacity : int;
  ring_addr : int;
  label : string;
  mutable sent : int;
}

let counter = ref 0

let create ~clock ~sender ~capacity ?label () =
  if capacity <= 0 then invalid_arg "Channel.create: capacity must be positive";
  incr counter;
  let label = match label with Some l -> l | None -> Printf.sprintf "chan#%d" !counter in
  {
    clock;
    sender_pd = sender;
    sender = Pdomain.id sender;
    capacity;
    ring_addr = Cycles.Clock.alloc_addr clock ~bytes:(capacity * 16);
    label;
    sent = 0;
  }

let charge_slot t index =
  Cycles.Clock.charge t.clock (Alu 3);
  Cycles.Clock.touch t.clock (t.ring_addr + (index mod t.capacity * 16)) ~bytes:16

let send t own =
  (* Ownership transfers before any outcome is known. *)
  ignore (Linear.Own.consume own);
  Cycles.Clock.charge t.clock Tls_lookup;
  let caller = Tls.current () in
  if not (Domain_id.is_kernel caller || Domain_id.equal caller t.sender) then
    Error (Wrong_domain caller)
  else begin
    charge_slot t t.sent;
    if t.sent >= t.capacity then Error Full
    else begin
      t.sent <- t.sent + 1;
      Ok ()
    end
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
       | Failed _ -> ());
    Panic.panic msg
  | (Ok () | Error (Wrong_domain _)) as r -> r

let length t = t.sent
let capacity t = t.capacity
