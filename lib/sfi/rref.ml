type 'a t = {
  weak : 'a Linear.Rc.weak;
  slot : Ref_table.slot_id;
  slot_addr : int;
  target : Pdomain.t;
}

let create target ?label obj =
  let slot, weak, slot_addr = Ref_table.register (Pdomain.table target) ?label obj in
  { weak; slot; slot_addr; target }


(* The fixed part of the remote-invocation sequence, up to and including
   the weak upgrade. Returns the upgraded strong reference. *)
let enter t =
  let clock = Pdomain.clock t.target in
  (* 1. Who is calling? Thread-local lookup. *)
  Cycles.Clock.charge clock Tls_lookup;
  let caller = Tls.current () in
  (* 2. Target availability: touch the domain descriptor. *)
  Cycles.Clock.touch clock (Pdomain.state_addr t.target) ~bytes:8;
  Cycles.Clock.charge clock Branch_hit;
  match Pdomain.state t.target with
  | Failed _ -> Error Sfi_error.Domain_unavailable
  | Running ->
    (* 3. Access control. *)
    Cycles.Clock.charge clock Branch_hit;
    if not (Policy.allows (Pdomain.policy t.target) ~caller ~slot:t.slot) then
      Error Sfi_error.Access_denied
    else begin
      (* 4. Weak upgrade through the reference-table slot. *)
      Cycles.Clock.touch clock t.slot_addr ~bytes:16;
      Cycles.Clock.charge clock Atomic_rmw;
      match Linear.Rc.upgrade t.weak with
      | None ->
        (match Pdomain.tele t.target with
        | Some tl -> Telemetry.Counter.incr tl.Pdomain.tl_upgrade_failures
        | None -> ());
        Error Sfi_error.Revoked
      | Some strong -> Ok strong
    end

let record_invocation target =
  match Pdomain.tele target with
  | Some tl -> Telemetry.Counter.incr tl.Pdomain.tl_invocations
  | None -> ()

let dispatch t strong body =
  let clock = Pdomain.clock t.target in
  record_invocation t.target;
  (* 5. Indirect dispatch through the proxy. *)
  Cycles.Clock.charge clock Indirect_call;
  let result = Pdomain.execute t.target (fun () -> body (Linear.Rc.get strong)) in
  (* 6. Release the temporary strong reference. *)
  Cycles.Clock.charge clock Atomic_rmw;
  Linear.Rc.drop strong;
  result

let invoke t m =
  match enter t with
  | Error e -> Error e
  | Ok strong -> dispatch t strong m

let invoke_move t own m =
  (* Consume the caller's handle before we even know whether the call
     will go through: ownership transfer is unconditional, exactly as a
     Rust move into a failed call would be. *)
  let arg = Linear.Own.consume own in
  match enter t with
  | Error e -> Error e
  | Ok strong -> dispatch t strong (fun obj -> m obj arg)

type 'a pinned = { p_strong : 'a Linear.Rc.t; p_target : Pdomain.t }

let pin t =
  match enter t with
  | Error e -> Error e
  | Ok strong -> Ok { p_strong = strong; p_target = t.target }

let invoke_pinned p body =
  let clock = Pdomain.clock p.p_target in
  record_invocation p.p_target;
  Cycles.Clock.charge clock Indirect_call;
  Pdomain.execute p.p_target (fun () -> body (Linear.Rc.get p.p_strong))

let unpin p = Linear.Rc.drop p.p_strong

let revoke t = Ref_table.revoke (Pdomain.table t.target) t.slot

let is_revoked t =
  match Linear.Rc.upgrade t.weak with
  | None -> true
  | Some strong ->
    Linear.Rc.drop strong;
    false
