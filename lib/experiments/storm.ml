type row = {
  policy : Faultinj.Restart.policy;
  crafted : int;
  served : int;       (* transmitted by a fully healthy pipeline *)
  degraded : int;     (* transmitted while routing around a dead stage *)
  dropped : int;
  injected : int;     (* faults the plan scheduled *)
  restarts : int;     (* successful supervisor restarts *)
  restores : int;     (* checkpoint rollbacks performed on restart *)
  p99_recovery : int; (* p99 of sfi.recovery_cycles, virtual cycles *)
  availability : float;  (* (served + degraded) / crafted *)
  digest : string;    (* md5 of the rendered merged telemetry *)
}

let default_queues = 8
let default_rounds = 400
let default_batch_size = 16
let default_seed = 2017L
let default_rate = 0.08
let default_fault_seed = 4242L

let default_policies =
  Faultinj.Restart.
    [
      (* Round-scale constants: a served round costs ~1.5k virtual
         cycles, but a round spent rejecting batches only advances the
         clock by the receive path (~300 cycles) — waits are sized
         against the latter, since that is the regime they run in. *)
      Immediate;
      Backoff { base = 300; cap = 4_800 };
      Breaker { failures = 3; window = 20_000; cooldown = 6_000 };
      Degrade;
    ]

let flowtab_stage_index = 2

let digest_of registry =
  String.sub (Digest.to_hex (Digest.string (Telemetry.Render.to_string registry))) 0 12

(* The stateful third stage is a per-queue {!Netstack.Flowtab}: a
   bucket array in an incremental checkpoint store, snapshotted every 8
   batches, whose supervised restart rolls back only the chunks dirtied
   since. E15 builds it in memory only; E19 attaches a durable store. *)
let run_one ?(queues = default_queues) ?(rounds = default_rounds)
    ?(batch_size = default_batch_size) ?(rate = default_rate)
    ?(fault_seed = default_fault_seed) ~shards ~policy ~flowtab () =
  let tabs = Array.make queues None in
  let stages (ctx : Netstack.Shard.queue_ctx) =
    let ft = flowtab ctx in
    tabs.(ctx.Netstack.Shard.qc_queue) <- Some ft;
    [
      Netstack.Filters.checksum_verify; Netstack.Filters.ttl_decrement;
      Netstack.Flowtab.stage ft;
    ]
  in
  let on_restart ~queue ~stage =
    if stage = flowtab_stage_index then Option.iter Netstack.Flowtab.rollback tabs.(queue)
  in
  let faults =
    { Netstack.Shard.f_rate = rate; f_seed = fault_seed; f_policy = policy;
      f_on_restart = on_restart }
  in
  let spec =
    Netstack.Shard.default_spec ~shards ~queues ~rounds ~batch_size ~seed:default_seed
      ~faults ~mode:Netstack.Shard.Isolated ~stages ()
  in
  let r = Netstack.Shard.run (Netstack.Shard.create spec) in
  let tabs = Array.map Option.get tabs in
  (r, Array.fold_left (fun acc ft -> acc + Netstack.Flowtab.rollbacks ft) 0 tabs, tabs)

let row_of ~policy (r : Netstack.Shard.result) ~restores =
  let p99_recovery =
    match Telemetry.Registry.find r.Netstack.Shard.r_telemetry "sfi.recovery_cycles" with
    | Some (Telemetry.Registry.Histogram h) when Telemetry.Histogram.count h > 0 ->
      Telemetry.Histogram.percentile h 99.
    | _ -> 0
  in
  let crafted = r.Netstack.Shard.r_crafted in
  {
    policy;
    crafted;
    served = r.Netstack.Shard.r_served;
    degraded = r.Netstack.Shard.r_degraded;
    dropped = r.Netstack.Shard.r_dropped;
    injected = r.Netstack.Shard.r_injected;
    restarts = r.Netstack.Shard.r_restarts;
    restores;
    p99_recovery;
    availability =
      (if crafted = 0 then 1.0
       else
         float_of_int (r.Netstack.Shard.r_served + r.Netstack.Shard.r_degraded)
         /. float_of_int crafted);
    digest = digest_of r.Netstack.Shard.r_telemetry;
  }

let print_table rows =
  print_endline
    "E15 (extension): seeded fault storm vs restart policy (isolated pipelines,\n\
    \  supervisor-gated service; every count below is deterministic and\n\
    \  shard-count-invariant - only wall-clock changes with shards)";
  Table.print
    ~header:
      [
        "policy"; "crafted"; "served"; "degraded"; "dropped"; "injected"; "restarts";
        "restores"; "p99 rec"; "avail"; "telemetry md5";
      ]
    (List.map
       (fun r ->
         [
           Faultinj.Restart.policy_name r.policy;
           Table.fi r.crafted;
           Table.fi r.served;
           Table.fi r.degraded;
           Table.fi r.dropped;
           Table.fi r.injected;
           Table.fi r.restarts;
           Table.fi r.restores;
           Table.fi r.p99_recovery;
           Table.fpct r.availability;
           r.digest;
         ])
       rows);
  let conserved =
    List.for_all (fun r -> r.crafted = r.served + r.degraded + r.dropped) rows
  in
  Printf.printf
    "  conservation (crafted = served + degraded + dropped): %s\n\
    \  the supervisor turns contained panics into policy: immediate restarts buy\n\
    \  availability with restart churn, backoff and the breaker trade batches for\n\
    \  fewer restarts, degrade routes around dead stages and serves the rest\n"
    (Table.fb conserved)

let print ~shards =
  let runs =
    List.map
      (fun policy -> (policy, run_one ~shards ~policy ~flowtab:Netstack.Flowtab.create ()))
      default_policies
  in
  print_table (List.map (fun (policy, (r, restores, _)) -> row_of ~policy r ~restores) runs);
  print_newline ();
  List.iter
    (fun (policy, (r, _, _)) ->
      Telemetry.Render.print
        ~title:(Printf.sprintf "storm telemetry (%s)" (Faultinj.Restart.policy_name policy))
        r.Netstack.Shard.r_telemetry;
      print_newline ())
    runs
