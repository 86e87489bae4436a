type event =
  | Domain_failed of Pdomain.t
  | Domain_recovered of Pdomain.t

type t = {
  clock : Cycles.Clock.t;
  telemetry : Telemetry.Registry.t option;
  recovery_span : Telemetry.Span.t option;
  mutable subscribers : (event -> unit) list;
}

let create ?clock ?telemetry () =
  let clock = match clock with Some c -> c | None -> Cycles.Clock.create () in
  let recovery_span =
    match telemetry with
    | None -> None
    | Some reg ->
      Some (Telemetry.Span.create ~clock (Telemetry.Registry.histogram reg "sfi.recovery_cycles"))
  in
  { clock; telemetry; recovery_span; subscribers = [] }

let clock t = t.clock

(* Subscribers run in registration order; a subscriber that raises
   would tear the management plane, so they are expected not to. *)
let notify t ev = List.iter (fun f -> f ev) (List.rev t.subscribers)
let subscribe t f = t.subscribers <- f :: t.subscribers

let domain_tele t ~name =
  match t.telemetry with
  | None -> None
  | Some reg ->
    let scope = Telemetry.Scope.v reg ("sfi." ^ name) in
    Some
      {
        Pdomain.tl_invocations = Telemetry.Scope.counter scope "invocations";
        tl_panics = Telemetry.Scope.counter scope "panics";
        tl_upgrade_failures = Telemetry.Scope.counter scope "upgrade_failures";
        tl_recoveries = Telemetry.Scope.counter scope "recoveries";
      }

let create_domain t ~name ?policy ?recovery () =
  let d =
    Pdomain.create ~clock:t.clock ~name ?policy ?recovery ?tele:(domain_tele t ~name) ()
  in
  (* Every caught panic — at the execute boundary or attributed via
     [mark_failed] — reaches the manager's subscribers, which is what a
     supervisor needs to drive restart policies without polling. *)
  Pdomain.set_on_fail d (Some (fun d -> notify t (Domain_failed d)));
  d

let recover_body t d =
  (* 1. Clear the reference table: every outstanding rref is revoked. *)
  ignore (Ref_table.clear (Pdomain.table d));
  (* 2. Fresh descriptor state (the "create a new one" of §3: same
     identity, new generation). *)
  Cycles.Clock.charge t.clock Alloc;
  Cycles.Clock.touch t.clock (Pdomain.state_addr d) ~bytes:64;
  Pdomain.reset_after_recovery d;
  (* 3. User-provided re-initialisation, inside the fresh domain. *)
  match Pdomain.recovery d with
  | None -> Ok ()
  | Some init ->
    (match Pdomain.execute d (fun () -> init d) with
    | Ok () -> Ok ()
    | Error e -> Error (Sfi_error.to_string e))

let recover t d =
  (* The whole recovery sequence is one span: its virtual-cycle
     duration lands in the [sfi.recovery_cycles] histogram. *)
  let result =
    match t.recovery_span with
    | None -> recover_body t d
    | Some span -> Telemetry.Span.with_ span (fun () -> recover_body t d)
  in
  (match result with Ok () -> notify t (Domain_recovered d) | Error _ -> ());
  result
