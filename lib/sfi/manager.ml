type stats = {
  domains_created : int;
  domains_destroyed : int;
  recoveries : int;
  slots_revoked_by_recovery : int;
}

type event =
  | Domain_failed of Pdomain.t
  | Domain_recovered of Pdomain.t
  | Domain_destroyed of Pdomain.t

type t = {
  clock : Cycles.Clock.t;
  heap : Heap.t;
  telemetry : Telemetry.Registry.t option;
  recovery_span : Telemetry.Span.t option;
  mutable domains : Pdomain.t list;
  mutable domains_created : int;
  mutable domains_destroyed : int;
  mutable recoveries : int;
  mutable slots_revoked : int;
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
  {
    clock;
    heap = Heap.create ~clock;
    telemetry;
    recovery_span;
    domains = [];
    domains_created = 0;
    domains_destroyed = 0;
    recoveries = 0;
    slots_revoked = 0;
    subscribers = [];
  }

let clock t = t.clock
let heap t = t.heap

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
    Pdomain.create ~clock:t.clock ~heap:t.heap ~name ?policy ?recovery
      ?tele:(domain_tele t ~name) ()
  in
  t.domains <- d :: t.domains;
  t.domains_created <- t.domains_created + 1;
  (* Every caught panic — at the execute boundary or attributed via
     [mark_failed] — reaches the manager's subscribers, which is what a
     supervisor needs to drive restart policies without polling. *)
  Pdomain.set_on_fail d (Some (fun d -> notify t (Domain_failed d)));
  d

let recover_body t d =
  (* 1. Clear the reference table: every outstanding rref is revoked. *)
  let revoked = Ref_table.clear (Pdomain.table d) in
  t.slots_revoked <- t.slots_revoked + revoked;
  (* 2. Release all memory the domain owned. *)
  ignore (Heap.free_all_owned_by t.heap (Pdomain.id d));
  (* 3. Fresh descriptor state (the "create a new one" of §3: same
     identity, new generation). *)
  Cycles.Clock.charge t.clock Alloc;
  Cycles.Clock.touch t.clock (Pdomain.state_addr d) ~bytes:64;
  Pdomain.reset_after_recovery d;
  t.recoveries <- t.recoveries + 1;
  (* 4. User-provided re-initialisation, inside the fresh domain. *)
  (match Pdomain.recovery d with
  | None -> Ok ()
  | Some init ->
    (match Pdomain.execute d (fun () -> init d) with
    | Ok () -> Ok ()
    | Error e -> Error (Sfi_error.to_string e)))

let recover t d =
  match Pdomain.state d with
  | Destroyed -> Error "cannot recover a destroyed domain"
  | Running | Failed _ ->
    (* The whole recovery sequence is one span: its virtual-cycle
       duration lands in the [sfi.recovery_cycles] histogram. *)
    let result =
      match t.recovery_span with
      | None -> recover_body t d
      | Some span -> Telemetry.Span.with_ span (fun () -> recover_body t d)
    in
    (match result with Ok () -> notify t (Domain_recovered d) | Error _ -> ());
    result

let destroy t d =
  match Pdomain.state d with
  | Destroyed -> ()
  | Running | Failed _ ->
    ignore (Ref_table.clear (Pdomain.table d));
    ignore (Heap.free_all_owned_by t.heap (Pdomain.id d));
    Pdomain.mark_destroyed d;
    t.domains_destroyed <- t.domains_destroyed + 1;
    notify t (Domain_destroyed d)

let stats t =
  {
    domains_created = t.domains_created;
    domains_destroyed = t.domains_destroyed;
    recoveries = t.recoveries;
    slots_revoked_by_recovery = t.slots_revoked;
  }
