(* Tests for the fault-injection layer: plan determinism and
   shard-invariant derivation, the restart-policy decision kernel
   (backoff arithmetic, breaker trip/half-open/re-open), the
   supervisor driving a real manager-backed restart function, and the
   storm experiment's conservation + determinism claims. *)

let qt = Seed.to_alcotest

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

(* A whole storm: every queue's schedule, derived as {!Netstack.Shard}
   derives them. *)
let plan ~seed ~rate ~rounds ~stages ~queues =
  List.init queues (fun queue -> Faultinj.Plan.for_queue ~seed ~rate ~rounds ~stages ~queue ())

(* Every [(queue, round, fault)] of a storm, by queue, round and draw
   order: the replay log a determinism check diffs. *)
let events ~rounds p =
  List.concat
    (List.mapi
       (fun q qp ->
         List.concat_map
           (fun round -> List.map (fun f -> (q, round, f)) (Faultinj.Plan.faults_at qp ~round))
           (List.init rounds (fun i -> i + 1)))
       p)

let total p = List.fold_left (fun acc qp -> acc + Faultinj.Plan.queue_total qp) 0 p

let test_plan_replayable () =
  let gen seed = plan ~seed ~rate:0.1 ~rounds:200 ~stages:3 ~queues:4 in
  let p1 = gen 42L and p2 = gen 42L and p3 = gen 43L in
  Alcotest.(check bool) "same seed, same events" true
    (events ~rounds:200 p1 = events ~rounds:200 p2);
  Alcotest.(check bool) "different seed, different events" false
    (events ~rounds:200 p1 = events ~rounds:200 p3);
  Alcotest.(check bool) "storm is non-empty" true (total p1 > 0)

let test_plan_queue_independent () =
  (* A queue's schedule must be a function of (seed, queue) alone: the
     4-queue and 8-queue storms agree on their shared queues, which is
     exactly why regrouping queues over shards cannot move a fault. *)
  let gen queues = plan ~seed:7L ~rate:0.15 ~rounds:120 ~stages:3 ~queues in
  let small = gen 4 and big = gen 8 in
  for q = 0 to 3 do
    let faults p =
      List.concat_map
        (fun round -> Faultinj.Plan.faults_at (List.nth p q) ~round)
        (List.init 120 (fun i -> i + 1))
    in
    Alcotest.(check bool)
      (Printf.sprintf "queue %d schedule independent of queue count" q)
      true
      (faults small = faults big)
  done

let test_plan_rate_zero_and_bounds () =
  let p = plan ~seed:1L ~rate:0. ~rounds:50 ~stages:2 ~queues:2 in
  Alcotest.(check int) "rate 0 = calm storm" 0 (total p);
  Alcotest.check_raises "rate > 1 rejected"
    (Invalid_argument "Plan.for_queue: rate must be in [0, 1]") (fun () ->
      ignore (plan ~seed:1L ~rate:1.5 ~rounds:10 ~stages:2 ~queues:1));
  (* Every drawn stage index must be in range. *)
  let p = plan ~seed:3L ~rate:0.3 ~rounds:200 ~stages:3 ~queues:2 in
  List.iter
    (fun (_, _, f) ->
      match f with
      | Faultinj.Plan.Panic_in_stage { stage }
      | Faultinj.Plan.Recovery_panic { stage; _ }
      | Faultinj.Plan.Rref_revoke { stage } ->
        Alcotest.(check bool) "stage in range" true (stage >= 0 && stage < 3)
      | Faultinj.Plan.Channel_full -> ()
      | Faultinj.Plan.Mempool_exhaust { buffers } ->
        Alcotest.(check bool) "steals at least one buffer" true (buffers >= 1))
    (events ~rounds:200 p)

(* ------------------------------------------------------------------ *)
(* Restart policies: the clock-agnostic decision kernel                *)
(* ------------------------------------------------------------------ *)

let retry_at = function
  | Faultinj.Restart.Retry_at t -> t
  | Trip_until _ -> Alcotest.fail "unexpected trip"
  | Give_up -> Alcotest.fail "unexpected give-up"

let test_backoff_doubles_and_caps () =
  let t = Faultinj.Restart.(create (Backoff { base = 100; cap = 500 })) in
  Alcotest.(check int64) "1st failure: base" 1100L
    (retry_at (Faultinj.Restart.on_failure t ~now:1000L));
  Alcotest.(check int64) "2nd failure: doubled" 1200L
    (retry_at (Faultinj.Restart.on_failure t ~now:1000L));
  Alcotest.(check int64) "3rd failure: doubled again" 1400L
    (retry_at (Faultinj.Restart.on_failure t ~now:1000L));
  Alcotest.(check int64) "4th failure: capped" 1500L
    (retry_at (Faultinj.Restart.on_failure t ~now:1000L));
  Faultinj.Restart.on_service_ok t;
  Alcotest.(check int64) "healthy batch resets the streak" 1100L
    (retry_at (Faultinj.Restart.on_failure t ~now:1000L))

let test_breaker_trips_probes_reopens () =
  let open Faultinj.Restart in
  let t = create (Breaker { failures = 3; window = 1_000; cooldown = 500 }) in
  Alcotest.(check bool) "starts closed" true (breaker_state t = Closed);
  ignore (on_failure t ~now:100L);
  ignore (on_failure t ~now:200L);
  (match on_failure t ~now:300L with
  | Trip_until due ->
    Alcotest.(check int64) "third strike trips for cooldown" 800L due
  | _ -> Alcotest.fail "breaker did not trip");
  Alcotest.(check bool) "open after trip" true (breaker_state t = Open);
  (* First restart out of Open is the half-open probe... *)
  (match on_restart t with
  | `Probe -> ()
  | `Normal -> Alcotest.fail "restart out of Open must be a probe");
  Alcotest.(check bool) "half-open" true (breaker_state t = Half_open);
  (* ...and a failure during the probe re-opens immediately. *)
  (match on_failure t ~now:900L with
  | Trip_until due -> Alcotest.(check int64) "re-opened" 1400L due
  | _ -> Alcotest.fail "probe failure must re-trip");
  ignore (on_restart t);
  on_service_ok t;
  Alcotest.(check bool) "healthy probe closes" true (breaker_state t = Closed)

let test_breaker_window_prunes () =
  let open Faultinj.Restart in
  let t = create (Breaker { failures = 3; window = 1_000; cooldown = 500 }) in
  ignore (on_failure t ~now:100L);
  ignore (on_failure t ~now:200L);
  (* The third failure lands after the first left the window: no trip. *)
  (match on_failure t ~now:1_500L with
  | Retry_at _ -> ()
  | _ -> Alcotest.fail "stale failures must not count");
  Alcotest.(check bool) "still closed" true (breaker_state t = Closed)

(* ------------------------------------------------------------------ *)
(* Supervisor over a live manager                                      *)
(* ------------------------------------------------------------------ *)

(* One supervised unit whose restart function fails [fail] times before
   succeeding — the Recovery_panic shape, reduced to its essence. *)
let flaky_supervisor ?telemetry ~policy ~fail () =
  let clock = Cycles.Clock.create () in
  let left = ref fail in
  let attempts = ref 0 in
  let restart _i =
    incr attempts;
    Cycles.Clock.charge clock (Cycles.Clock.Fixed 50);
    if !left > 0 then (
      decr left;
      Error "recovery panicked")
    else Ok ()
  in
  let sup =
    Faultinj.Supervisor.create ?telemetry ~clock ~policy ~names:[| "u0" |] ~restart ()
  in
  (clock, sup, attempts)

let test_supervisor_flaky_recovery () =
  let clock, sup, attempts =
    flaky_supervisor ~policy:Faultinj.Restart.Immediate ~fail:3 ()
  in
  Faultinj.Supervisor.note_failure sup 0;
  (* Immediate policy: each admit retries once; three attempts fail,
     the fourth brings the unit back. *)
  for i = 1 to 3 do
    Cycles.Clock.charge clock (Cycles.Clock.Fixed 10);
    match Faultinj.Supervisor.admit sup with
    | `Drop -> ()
    | `Serve _ -> Alcotest.failf "admitted while recovery still panicking (try %d)" i
  done;
  (match Faultinj.Supervisor.admit sup with
  | `Serve [] -> ()
  | `Serve _ -> Alcotest.fail "nothing should be skipped"
  | `Drop -> Alcotest.fail "unit should be back up");
  Faultinj.Supervisor.report_success sup;
  Alcotest.(check int) "four restart attempts" 4 !attempts;
  let s = Faultinj.Supervisor.stats sup in
  Alcotest.(check int) "one successful restart" 1 s.Faultinj.Supervisor.restarts;
  Alcotest.(check int) "three failed attempts" 3 s.Faultinj.Supervisor.restart_failures;
  Alcotest.(check int) "drops while down" 3 s.Faultinj.Supervisor.dropped_admissions

let test_supervisor_breaker_halfopen_probe () =
  let telemetry = Telemetry.Registry.create () in
  let clock, sup, _ =
    flaky_supervisor ~telemetry
      ~policy:Faultinj.Restart.(Breaker { failures = 2; window = 10_000; cooldown = 400 })
      ~fail:1 ()
  in
  (* Two failures inside the window trip the breaker: the first fails
     its restart attempt (fail:1), re-entering the policy. *)
  Faultinj.Supervisor.note_failure sup 0;
  Alcotest.(check bool) "cooling down" true (Faultinj.Supervisor.admit sup = `Drop);
  let s = Faultinj.Supervisor.stats sup in
  Alcotest.(check int) "tripped once" 1 s.Faultinj.Supervisor.breaker_trips;
  (* Still open until the clock passes the cooldown... *)
  Cycles.Clock.charge clock (Cycles.Clock.Fixed 100);
  Alcotest.(check bool) "still cooling" true (Faultinj.Supervisor.admit sup = `Drop);
  (* ...then the next admission runs the half-open probe restart. *)
  Cycles.Clock.charge clock (Cycles.Clock.Fixed 1_000);
  (match Faultinj.Supervisor.admit sup with
  | `Serve [] -> ()
  | _ -> Alcotest.fail "probe restart should admit");
  (match Telemetry.Registry.find telemetry "sfi.u0.breaker_state" with
  | Some (Telemetry.Registry.Gauge g) ->
    Alcotest.(check int) "gauge says half-open"
      (Faultinj.Restart.breaker_code Faultinj.Restart.Half_open)
      (Telemetry.Gauge.value g)
  | _ -> Alcotest.fail "breaker gauge missing");
  Faultinj.Supervisor.report_success sup;
  (match Telemetry.Registry.find telemetry "sfi.u0.breaker_state" with
  | Some (Telemetry.Registry.Gauge g) ->
    Alcotest.(check int) "healthy probe closes the breaker"
      (Faultinj.Restart.breaker_code Faultinj.Restart.Closed)
      (Telemetry.Gauge.value g)
  | _ -> Alcotest.fail "breaker gauge missing")

let test_supervisor_degrade_routes_around () =
  let clock = Cycles.Clock.create () in
  let degraded = ref [] in
  let sup =
    Faultinj.Supervisor.create ~clock ~policy:Faultinj.Restart.Degrade
      ~on_degrade:(fun i -> degraded := i :: !degraded)
      ~names:[| "a"; "b" |]
      ~restart:(fun _ -> Alcotest.fail "degrade must never restart")
      ()
  in
  Faultinj.Supervisor.note_failure sup 1;
  Alcotest.(check (list int)) "degrade hook fired" [ 1 ] !degraded;
  (match Faultinj.Supervisor.admit sup with
  | `Serve skipped -> Alcotest.(check (list int)) "routes around b" [ 1 ] skipped
  | `Drop -> Alcotest.fail "degraded pipelines keep serving");
  Alcotest.(check bool) "skipped is queryable" true (Faultinj.Supervisor.is_skipped sup 1);
  Faultinj.Supervisor.note_failure sup 1;
  Alcotest.(check (list int)) "hook fires once" [ 1 ] !degraded

(* ------------------------------------------------------------------ *)
(* The storm: conservation + determinism                               *)
(* ------------------------------------------------------------------ *)

let small_storm ?(shards = 1) ~policy ~rate ~fault_seed () =
  Experiments.Storm.run_one ~queues:4 ~rounds:40 ~batch_size:8 ~rate ~fault_seed ~shards
    ~policy ()

let prop_storm_conserves_packets =
  QCheck.Test.make ~name:"crafted = served + degraded + dropped" ~count:8
    QCheck.(triple (int_range 0 3) (int_range 0 30) (int_range 0 10_000))
    (fun (which, rate_pct, seed) ->
      let policy = List.nth Experiments.Storm.default_policies which in
      let r, _ =
        small_storm ~policy
          ~rate:(float_of_int rate_pct /. 100.)
          ~fault_seed:(Int64.of_int seed) ()
      in
      r.Netstack.Shard.r_crafted
      = r.Netstack.Shard.r_served + r.Netstack.Shard.r_degraded
        + r.Netstack.Shard.r_dropped)

let test_storm_replay_identical () =
  List.iter
    (fun policy ->
      let run () = fst (small_storm ~policy ~rate:0.1 ~fault_seed:4242L ()) in
      let a = run () and b = run () in
      Alcotest.(check string)
        (Faultinj.Restart.policy_name policy ^ " replays byte-identically")
        (Telemetry.Render.to_string a.Netstack.Shard.r_telemetry)
        (Telemetry.Render.to_string b.Netstack.Shard.r_telemetry))
    Experiments.Storm.default_policies

let test_storm_shard_invariant () =
  List.iter
    (fun policy ->
      let run shards = fst (small_storm ~shards ~policy ~rate:0.1 ~fault_seed:4242L ()) in
      let r1 = run 1 and r2 = run 2 in
      Alcotest.(check string)
        (Faultinj.Restart.policy_name policy ^ " invariant under sharding")
        (Telemetry.Render.to_string r1.Netstack.Shard.r_telemetry)
        (Telemetry.Render.to_string r2.Netstack.Shard.r_telemetry);
      Alcotest.(check int) "served invariant" r1.Netstack.Shard.r_served
        r2.Netstack.Shard.r_served)
    Experiments.Storm.default_policies

let () =
  Alcotest.run "faultinj"
    [
      ( "plan",
        [
          Alcotest.test_case "replayable" `Quick test_plan_replayable;
          Alcotest.test_case "queue-derivation independent" `Quick
            test_plan_queue_independent;
          Alcotest.test_case "rate zero + bounds" `Quick test_plan_rate_zero_and_bounds;
        ] );
      ( "restart",
        [
          Alcotest.test_case "backoff doubles, caps, resets" `Quick
            test_backoff_doubles_and_caps;
          Alcotest.test_case "breaker trip / probe / re-open" `Quick
            test_breaker_trips_probes_reopens;
          Alcotest.test_case "breaker window prunes stale failures" `Quick
            test_breaker_window_prunes;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "flaky recovery: N panics then success" `Quick
            test_supervisor_flaky_recovery;
          Alcotest.test_case "breaker half-open probe" `Quick
            test_supervisor_breaker_halfopen_probe;
          Alcotest.test_case "degrade routes around" `Quick
            test_supervisor_degrade_routes_around;
        ] );
      ( "storm",
        [
          qt prop_storm_conserves_packets;
          Alcotest.test_case "replay is byte-identical" `Quick test_storm_replay_identical;
          Alcotest.test_case "shard-count invariant" `Quick test_storm_shard_invariant;
        ] );
    ]
