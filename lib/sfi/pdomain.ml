type state =
  | Running
  | Failed of string

(* Pre-resolved telemetry handles, minted by the manager under
   [sfi.<name>.*]; recording is a single atomic op on the hot path. *)
type tele = {
  tl_invocations : Telemetry.Counter.t;
  tl_panics : Telemetry.Counter.t;
  tl_upgrade_failures : Telemetry.Counter.t;
  tl_recoveries : Telemetry.Counter.t;
}

type t = {
  id : Domain_id.t;
  name : string;
  clock : Cycles.Clock.t;
  table : Ref_table.t;
  state_addr : int;
  mutable state : state;
  mutable policy : Policy.t;
  mutable recovery : (t -> unit) option;
  mutable generation : int;
  mutable panic_count : int;
  mutable cycles_consumed : int64;
  mutable entry_count : int;
  mutable on_fail : (t -> unit) option;
  tele : tele option;
}

let create ~clock ~name ?(policy = Policy.allow_all) ?recovery ?tele () =
  let id = Domain_id.fresh () in
  {
    id;
    name;
    clock;
    table = Ref_table.create ~clock ~owner:id;
    state_addr = Cycles.Clock.alloc_addr clock ~bytes:64;
    state = Running;
    policy;
    recovery;
    generation = 0;
    panic_count = 0;
    cycles_consumed = 0L;
    entry_count = 0;
    on_fail = None;
    tele;
  }

let id t = t.id
let name t = t.name
let state t = t.state
let policy t = t.policy
let set_policy t p = t.policy <- p
let table t = t.table
let clock t = t.clock
let recovery t = t.recovery
let set_recovery t r = t.recovery <- r
let state_addr t = t.state_addr
let generation t = t.generation
let panic_count t = t.panic_count
let cycles_consumed t = t.cycles_consumed
let entry_count t = t.entry_count
let tele t = t.tele

let set_on_fail t f = t.on_fail <- f

let record_panic t =
  (match t.tele with
  | Some tl -> Telemetry.Counter.incr tl.tl_panics
  | None -> ());
  match t.on_fail with
  | Some notify -> notify t
  | None -> ()

let execute t f =
  match t.state with
  | Failed _ -> Error Sfi_error.Domain_unavailable
  | Running ->
    (* Entry: read + update the thread-local current-domain slot and the
       domain descriptor. *)
    Cycles.Clock.charge t.clock Tls_lookup;
    Cycles.Clock.touch t.clock t.state_addr ~bytes:8;
    Cycles.Clock.charge t.clock Call;
    let entered_at = Cycles.Clock.now t.clock in
    let result = Tls.with_current t.id (fun () -> Panic.catch_unwind f) in
    t.cycles_consumed <-
      Int64.add t.cycles_consumed (Int64.sub (Cycles.Clock.now t.clock) entered_at);
    t.entry_count <- t.entry_count + 1;
    (* Exit: restore the thread-local slot. *)
    Cycles.Clock.charge t.clock Tls_lookup;
    (match result with
    | Ok v -> Ok v
    | Error msg ->
      (* Unwinding the stack back to the domain entry point. *)
      Cycles.Clock.charge t.clock Unwind;
      t.state <- Failed msg;
      t.panic_count <- t.panic_count + 1;
      record_panic t;
      Error (Sfi_error.Domain_failed msg))

let mark_failed t msg =
  t.state <- Failed msg;
  t.panic_count <- t.panic_count + 1;
  record_panic t

let reset_after_recovery t =
  t.state <- Running;
  t.generation <- t.generation + 1;
  match t.tele with
  | Some tl -> Telemetry.Counter.incr tl.tl_recoveries
  | None -> ()
