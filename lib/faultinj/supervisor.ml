type unit_state = Up | Probing | Down of { due : int64 } | Skipped

type unit_slot = {
  u_restart : Restart.t;
  u_c_restarts : Telemetry.Counter.t option;
  u_c_backoff : Telemetry.Counter.t option;
  u_g_breaker : Telemetry.Gauge.t option;
  mutable u_state : unit_state;
}

type stats = {
  restarts : int;
  restart_failures : int;
  dropped_admissions : int;
  breaker_trips : int;
  degraded_units : int;
}

type t = {
  clock : Cycles.Clock.t;
  units : unit_slot array;
  names : string array;
  telemetry : Telemetry.Registry.t option;
  restart_fn : int -> (unit, string) result;
  on_degrade : int -> unit;
  mutable s_restarts : int;
  mutable s_restart_failures : int;
  mutable s_dropped : int;
  mutable s_trips : int;
  mutable s_degraded : int;
}

let create ?telemetry ?(on_degrade = fun _ -> ()) ~clock ~policy ~names ~restart () =
  if Array.length names = 0 then invalid_arg "Supervisor.create: no units";
  let units =
    Array.map
      (fun name ->
        let metric mint leaf =
          Option.map (fun reg -> mint reg (Printf.sprintf "sfi.%s.%s" name leaf)) telemetry
        in
        {
          u_restart = Restart.create policy;
          u_c_restarts = metric Telemetry.Registry.counter "restarts";
          u_c_backoff = metric Telemetry.Registry.counter "backoff_cycles";
          u_g_breaker = metric Telemetry.Registry.gauge "breaker_state";
          u_state = Up;
        })
      names
  in
  {
    clock;
    units;
    names;
    telemetry;
    restart_fn = restart;
    on_degrade;
    s_restarts = 0;
    s_restart_failures = 0;
    s_dropped = 0;
    s_trips = 0;
    s_degraded = 0;
  }

let sync_gauge u =
  match u.u_g_breaker with
  | Some g -> Telemetry.Gauge.set g (Restart.breaker_code (Restart.breaker_state u.u_restart))
  | None -> ()

let charge_wait u ~now ~due =
  let wait = Int64.to_int (Int64.sub due now) in
  if wait > 0 then
    match u.u_c_backoff with Some c -> Telemetry.Counter.add c wait | None -> ()

let apply_decision t i u ~now = function
  | Restart.Give_up ->
    u.u_state <- Skipped;
    t.s_degraded <- t.s_degraded + 1;
    sync_gauge u;
    t.on_degrade i
  | Restart.Retry_at due ->
    u.u_state <- Down { due };
    charge_wait u ~now ~due;
    sync_gauge u
  | Restart.Trip_until due ->
    t.s_trips <- t.s_trips + 1;
    u.u_state <- Down { due };
    charge_wait u ~now ~due;
    sync_gauge u

let note_failure t i =
  let u = t.units.(i) in
  match u.u_state with
  | Up | Probing ->
    let now = Cycles.Clock.now t.clock in
    apply_decision t i u ~now (Restart.on_failure u.u_restart ~now)
  | Down _ | Skipped -> ()

let supervise t mgr ~index_of =
  Sfi.Manager.subscribe mgr (function
    | Sfi.Manager.Domain_failed d -> note_failure t (index_of d)
    | Sfi.Manager.Domain_recovered _ -> ())

let try_restart t i u =
  match t.restart_fn i with
  | Ok () ->
    t.s_restarts <- t.s_restarts + 1;
    (match u.u_c_restarts with Some c -> Telemetry.Counter.incr c | None -> ());
    (match Restart.on_restart u.u_restart with
    | `Probe -> u.u_state <- Probing
    | `Normal -> u.u_state <- Up);
    sync_gauge u
  | Error _ ->
    t.s_restart_failures <- t.s_restart_failures + 1;
    let now = Cycles.Clock.now t.clock in
    apply_decision t i u ~now (Restart.on_failure u.u_restart ~now)

let admit t =
  Array.iteri
    (fun i u ->
      match u.u_state with
      | Down { due } when Int64.compare (Cycles.Clock.now t.clock) due >= 0 ->
        try_restart t i u
      | Down _ | Up | Probing | Skipped -> ())
    t.units;
  if Array.exists (fun u -> match u.u_state with Down _ -> true | _ -> false) t.units
  then begin
    t.s_dropped <- t.s_dropped + 1;
    `Drop
  end
  else begin
    let skipped = ref [] in
    Array.iteri (fun i u -> if u.u_state = Skipped then skipped := i :: !skipped) t.units;
    `Serve (List.rev !skipped)
  end

let report_success t =
  Array.iter
    (fun u ->
      match u.u_state with
      | Up | Probing ->
        Restart.on_service_ok u.u_restart;
        u.u_state <- Up;
        sync_gauge u
      | Down _ | Skipped -> ())
    t.units

let cold_start t ~restore =
  (* Counters minted lazily here, not in [create]: supervisors that never
     cold-start must render the exact metric set they always did. *)
  let mint i =
    match t.telemetry with
    | Some reg ->
      Telemetry.Counter.incr
        (Telemetry.Registry.counter reg (Printf.sprintf "sfi.%s.cold_restores" t.names.(i)))
    | None -> ()
  in
  let outcomes = ref [] in
  Array.iteri
    (fun i u ->
      let outcome = restore i in
      (match outcome with
      | Ok _ ->
        u.u_state <- Up;
        t.s_restarts <- t.s_restarts + 1;
        (match u.u_c_restarts with Some c -> Telemetry.Counter.incr c | None -> ());
        mint i;
        sync_gauge u
      | Error _ ->
        t.s_restart_failures <- t.s_restart_failures + 1;
        let now = Cycles.Clock.now t.clock in
        apply_decision t i u ~now (Restart.on_failure u.u_restart ~now));
      outcomes := (i, outcome) :: !outcomes)
    t.units;
  List.rev !outcomes

let is_skipped t i = t.units.(i).u_state = Skipped

let stats t =
  {
    restarts = t.s_restarts;
    restart_failures = t.s_restart_failures;
    dropped_admissions = t.s_dropped;
    breaker_trips = t.s_trips;
    degraded_units = t.s_degraded;
  }
