type mode = Direct | Isolated | Copying | Tagged

let mode_name = function
  | Direct -> "direct"
  | Isolated -> "isolated"
  | Copying -> "copying"
  | Tagged -> "tagged"

type queue_ctx = {
  qc_queue : int;
  qc_clock : Cycles.Clock.t;
  qc_registry : Telemetry.Registry.t;
  qc_flowcache : Flowcache.t option;
}

type fault_spec = {
  f_rate : float;
  f_seed : int64;
  f_policy : Faultinj.Restart.policy;
  f_on_restart : queue:int -> stage:int -> unit;
}

type cache_spec = {
  c_capacity : int;
  c_ttl_cycles : int64;
}

type spec = {
  shards : int;
  queues : int;
  rounds : int;
  batch_size : int;
  seed : int64;
  flows : int;
  pool_capacity : int;
  mode : mode;
  stages : queue_ctx -> Stage.t list;
  faults : fault_spec option;
  traffic : Traffic.plan option;
  cache : cache_spec option;
}

let default_spec ?(shards = 1) ?(queues = 8) ?(rounds = 300) ?(batch_size = 32)
    ?(seed = 2017L) ?(flows = 1024) ?faults ?traffic ?cache ~mode ~stages () =
  { shards; queues; rounds; batch_size; seed; flows; pool_capacity = 512; mode; stages;
    faults; traffic; cache }

(* Minimum-size (64-byte) frames for the default uniform workload. *)
let payload_bytes = 18

(* Per-queue fault-injection state. The arming arrays are shared with
   the stage wrappers installed by [make_queue_env]; everything here is
   derived from [(f_seed, queue)] alone, never from the queue→shard
   assignment, so storms replay identically for any shard count. *)
type faulty = {
  fy_plan : Faultinj.Plan.queue_plan;
  fy_triggers : bool array;  (* stage panics on its next invocation *)
  fy_rec_arm : int array;    (* pending injected recovery-fn panics *)
  fy_chan_arm : bool ref;    (* stage 0 sends on a full channel next *)
  fy_chan : unit Sfi.Channel.t;
  fy_injected : Telemetry.Counter.t;
  mutable fy_steal : Packet.t list;  (* buffers held hostage this round *)
}

(* One receive-queue replica. All *virtual* state — clock, pool,
   engine, NIC, pipeline, SFI manager, supervisor — is per queue, not
   per shard: a queue's virtual-cycle trajectory is then a function of
   its packet stream alone, so regrouping queues over a different
   number of shards cannot change any recorded number. The shard owns
   the telemetry registry its queues record into, and owns the queues'
   execution. *)
type queue_env = {
  q_id : int;
  q_clock : Cycles.Clock.t;
  q_pool : Mempool.t;
  q_nic : Nic.t;
  q_pipe : Pipeline.t;
  q_super : Faultinj.Supervisor.t;
  q_faulty : faulty option;
  mutable q_round : int;
  mutable q_batches : int;
  mutable q_packets_out : int;
  mutable q_failed : int;
  mutable q_crafted : int;
  mutable q_served : int;
  mutable q_degraded : int;
  mutable q_dropped : int;
}

type t = {
  spec : spec;
  rss : Rss.t;
  registries : Telemetry.Registry.t array;  (* one per shard *)
  queue_envs : queue_env array;             (* indexed by queue id *)
  mutable ran : bool;
}

type queue_stats = {
  qs_queue : int;
  qs_batches : int;
  qs_packets_out : int;
  qs_failed : int;
  qs_crafted : int;
  qs_served : int;
  qs_degraded : int;
  qs_dropped : int;
  qs_cycles : int64;
}

type result = {
  r_shards : int;
  r_queues : int;
  r_batches : int;
  r_packets_out : int;
  r_failed : int;
  r_crafted : int;
  r_served : int;
  r_degraded : int;
  r_dropped : int;
  r_injected : int;
  r_restarts : int;
  r_queue_stats : queue_stats list;
  r_telemetry : Telemetry.Registry.t;
}

let shard_of_queue spec q = q mod spec.shards

(* Wrap each stage with its injection points: an armed trigger panics
   before the stage body runs (while the stage owns the batch), and an
   armed control-channel send overflows from inside stage 0 — so the
   panic is attributed at the SFI boundary like any organic fault.
   The wrappers are opaque kernels on purpose: a storm run needs one
   fault domain per stage, so the wrapped chain must not fuse. The
   stage's declared invalidation hooks survive the wrapping. *)
let wrap_stages ~triggers ~chan_arm ~chan_cell stages =
  List.mapi
    (fun i (stage : Stage.t) ->
      Stage.opaque ~name:stage.Stage.name ~hooks:stage.Stage.hooks (fun eng b ->
          if triggers.(i) then begin
            triggers.(i) <- false;
            Sfi.Panic.panicf "faultinj: injected panic in %s" stage.Stage.name
          end;
          (if i = 0 && !chan_arm then begin
             chan_arm := false;
             match !chan_cell with
             | Some ch ->
               ignore (Sfi.Channel.send_exn ch (Linear.Own.create ~label:"faultinj.ctl" ()))
             | None -> ()
           end);
          Stage.process stage eng b))
    stages

let make_faulty spec ~registry ~clock ~pipe ~triggers ~rec_arm ~chan_arm ~chan_cell ~q_id fs =
  let plan =
    Faultinj.Plan.for_queue ~seed:fs.f_seed ~rate:fs.f_rate ~rounds:spec.rounds
      ~stages:(Array.length triggers) ~queue:q_id ()
  in
  (* The bounded channel stage 0's domain sends on; [Channel_full]
     faults fill it so the armed send overflows. *)
  let chan =
    Sfi.Channel.create ~clock ~sender:(Pipeline.stage_domain pipe 0) ~capacity:4
      ~label:(Printf.sprintf "q%d.ctl" q_id) ()
  in
  chan_cell := Some chan;
  (* Injected recovery panics: the restart path itself is the faulty
     component for the next [rec_arm.(i)] attempts. *)
  Array.iteri
    (fun i _ ->
      let d = Pipeline.stage_domain pipe i in
      let orig = Sfi.Pdomain.recovery d in
      Sfi.Pdomain.set_recovery d
        (Some
           (fun dd ->
             if rec_arm.(i) > 0 then begin
               rec_arm.(i) <- rec_arm.(i) - 1;
               Sfi.Panic.panic "faultinj: injected recovery panic"
             end;
             match orig with Some f -> f dd | None -> ())))
    triggers;
  {
    fy_plan = plan;
    fy_triggers = triggers;
    fy_rec_arm = rec_arm;
    fy_chan_arm = chan_arm;
    fy_chan = chan;
    fy_injected = Telemetry.Registry.counter registry (Printf.sprintf "faultinj.q%d.injected" q_id);
    fy_steal = [];
  }

(* The supervisor unit a domain stands for: the first stage it backs
   (a fused group's one domain backs several). *)
let unit_of pipe d =
  let id = Sfi.Pdomain.id d in
  let rec find i =
    if Sfi.Domain_id.equal (Sfi.Pdomain.id (Pipeline.stage_domain pipe i)) id then i
    else find (i + 1)
  in
  find 0

let make_queue_env spec registry q_id =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:spec.pool_capacity () in
  let engine = Engine.create ~clock ~pool ~telemetry:registry () in
  (* Every queue replays the same seeded generator stream (see
     Nic.rx_batch_filtered), so the streams stay aligned and the RSS
     predicate alone decides ownership. *)
  let rng = Cycles.Rng.create spec.seed in
  (* Custom plans (e.g. a million-flow Zipf mix) are built once by the
     caller and shared by every replica; only the drawing RNG is per
     queue. *)
  let traffic =
    match spec.traffic with
    | Some plan -> Traffic.of_plan ~rng plan
    | None -> Traffic.create ~rng ~payload_bytes (Traffic.Uniform { flows = spec.flows })
  in
  let nic = Nic.create ~engine ~traffic () in
  (* [Pipeline.create] subscribes the cache's invalidation to the
     stages' declared hooks; [qc_flowcache] only shows it to them. *)
  let fcache =
    Option.map
      (fun c ->
        Flowcache.create ~clock ~telemetry:registry ~capacity:c.c_capacity
          ~ttl_cycles:c.c_ttl_cycles ())
      spec.cache
  in
  let stages =
    spec.stages
      { qc_queue = q_id; qc_clock = clock; qc_registry = registry; qc_flowcache = fcache }
  in
  let n_stages = List.length stages in
  let triggers = Array.make n_stages false in
  let rec_arm = Array.make n_stages 0 in
  let chan_arm = ref false in
  let chan_cell = ref None in
  let run_stages =
    match spec.faults with
    | None -> stages
    | Some _ -> wrap_stages ~triggers ~chan_arm ~chan_cell stages
  in
  let mgr, mode =
    match spec.mode with
    | Direct -> (None, Pipeline.Direct)
    | Copying -> (None, Pipeline.Copying)
    | Tagged -> (None, Pipeline.Tagged)
    | Isolated ->
      let m = Sfi.Manager.create ~clock ~telemetry:registry () in
      (Some m, Pipeline.Isolated m)
  in
  let pipe = Pipeline.create ~engine ~mode ?flowcache:fcache run_stages in
  let faulty =
    Option.map
      (make_faulty spec ~registry ~clock ~pipe ~triggers ~rec_arm ~chan_arm ~chan_cell ~q_id)
      spec.faults
  in
  (* Every queue's service is gated by a supervisor. Without a fault
     spec it restarts a failed stage at the next batch and mints no
     metric. *)
  let policy, telemetry, on_restart =
    match spec.faults with
    | Some fs -> (fs.f_policy, Some registry, fs.f_on_restart)
    | None -> (Faultinj.Restart.Immediate, None, fun ~queue:_ ~stage:_ -> ())
  in
  let super =
    Faultinj.Supervisor.create ?telemetry
      ~on_degrade:(fun i -> Pipeline.set_stage_skipped pipe i true)
      ~clock ~policy
      ~names:
        (Array.of_list
           (List.map (fun (s : Stage.t) -> Printf.sprintf "q%d.%s" q_id s.Stage.name) stages))
      ~restart:(fun i ->
        on_restart ~queue:q_id ~stage:i;
        Pipeline.recover_stage pipe i)
      ()
  in
  Option.iter (fun mgr -> Faultinj.Supervisor.supervise super mgr ~index_of:(unit_of pipe)) mgr;
  {
    q_id;
    q_clock = clock;
    q_pool = pool;
    q_nic = nic;
    q_pipe = pipe;
    q_super = super;
    q_faulty = faulty;
    q_round = 0;
    q_batches = 0;
    q_packets_out = 0;
    q_failed = 0;
    q_crafted = 0;
    q_served = 0;
    q_degraded = 0;
    q_dropped = 0;
  }

let create spec =
  if spec.shards <= 0 then invalid_arg "Shard.create: shards must be positive";
  if spec.queues < spec.shards then invalid_arg "Shard.create: fewer queues than shards";
  if spec.rounds <= 0 then invalid_arg "Shard.create: rounds must be positive";
  if spec.batch_size <= 0 then invalid_arg "Shard.create: batch_size must be positive";
  if spec.pool_capacity < 2 * spec.batch_size then
    invalid_arg "Shard.create: pool must hold at least two batches";
  if spec.faults <> None && spec.mode <> Isolated then
    invalid_arg "Shard.create: fault injection requires Isolated mode";
  (match spec.cache with
  | Some _ when spec.mode = Copying ->
    invalid_arg "Shard.create: flow cache is incompatible with Copying mode"
  | Some _ | None -> ());
  let rss = Rss.create ~queues:spec.queues () in
  let registries = Array.init spec.shards (fun _ -> Telemetry.Registry.create ()) in
  (* Queues are built in ascending id order (stage constructors may
     count on it) and record into their owning shard's registry. *)
  let queue_envs =
    Array.init spec.queues (fun q -> make_queue_env spec registries.(shard_of_queue spec q) q)
  in
  { spec; rss; registries; queue_envs; ran = false }

let apply_fault q fy = function
  | Faultinj.Plan.Panic_in_stage { stage } -> fy.fy_triggers.(stage) <- true
  | Faultinj.Plan.Recovery_panic { stage; times } ->
    fy.fy_triggers.(stage) <- true;
    fy.fy_rec_arm.(stage) <- fy.fy_rec_arm.(stage) + times
  | Faultinj.Plan.Rref_revoke { stage } -> ignore (Pipeline.revoke_stage q.q_pipe stage)
  | Faultinj.Plan.Channel_full ->
    (* Pre-fill the control channel from the kernel so the armed
       in-stage send overflows. *)
    let ch = fy.fy_chan in
    while Sfi.Channel.length ch < Sfi.Channel.capacity ch do
      ignore (Sfi.Channel.send ch (Linear.Own.create ~label:"faultinj.flood" ()))
    done;
    fy.fy_chan_arm := true
  | Faultinj.Plan.Mempool_exhaust { buffers } ->
    for _ = 1 to buffers do
      match Mempool.alloc q.q_pool with
      | Some p -> fy.fy_steal <- p :: fy.fy_steal
      | None -> ()
    done

(* One round of one queue: up to batch_size global arrivals, of which
   this queue crafts and processes its RSS share, run to completion.
   A queue with no arrivals in the round does nothing — just like a
   hardware queue whose ring stayed empty. *)
let run_queue_round t q =
  q.q_round <- q.q_round + 1;
  Option.iter
    (fun fy ->
      List.iter
        (fun f ->
          Telemetry.Counter.incr fy.fy_injected;
          apply_fault q fy f)
        (Faultinj.Plan.faults_at fy.fy_plan ~round:q.q_round))
    q.q_faulty;
  let b =
    Nic.rx_batch_filtered q.q_nic t.spec.batch_size ~keep:(fun f ->
        Rss.queue t.rss f = q.q_id)
  in
  let len = Batch.length b in
  (if not (Batch.is_empty b) then begin
     q.q_batches <- q.q_batches + 1;
     q.q_crafted <- q.q_crafted + len;
     (* The supervisor gates service: due restarts are attempted here,
        and the batch is rejected while a stage is down. *)
     match Faultinj.Supervisor.admit q.q_super with
     | `Drop ->
       Nic.drop_batch q.q_nic b;
       q.q_dropped <- q.q_dropped + len
     | `Serve skips -> (
       match Pipeline.run q.q_pipe b with
       | Ok out ->
         let tx = Nic.tx_batch q.q_nic out in
         q.q_packets_out <- q.q_packets_out + tx;
         (if skips = [] then q.q_served <- q.q_served + tx
          else q.q_degraded <- q.q_degraded + tx);
         q.q_dropped <- q.q_dropped + (len - tx);
         Faultinj.Supervisor.report_success q.q_super
       | Error _ ->
         (* The batch's buffers were reclaimed by the pipeline. *)
         q.q_failed <- q.q_failed + 1;
         q.q_dropped <- q.q_dropped + len;
         (* The manager's Domain_failed hook already reported organic
            panics (the supervisor ignores the duplicate); this
            catches failures that leave the domain Running, e.g. an
            injected rref revocation. *)
         (match Pipeline.last_error_stage q.q_pipe with
         | Some i ->
           Faultinj.Supervisor.note_failure q.q_super
             (unit_of q.q_pipe (Pipeline.stage_domain q.q_pipe i))
         | None -> ()))
   end);
  (* Injected mempool pressure lasts exactly one round. *)
  match q.q_faulty with
  | Some fy when fy.fy_steal <> [] ->
    List.iter (Mempool.free q.q_pool) fy.fy_steal;
    fy.fy_steal <- []
  | Some _ | None -> ()

let run_shard t s =
  let owned = List.filter (fun q -> shard_of_queue t.spec q = s) (List.init t.spec.queues Fun.id) in
  for _ = 1 to t.spec.rounds do
    List.iter (fun q -> run_queue_round t t.queue_envs.(q)) owned
  done

let run t =
  if t.ran then invalid_arg "Shard.run: a sharded engine is single-shot";
  t.ran <- true;
  (* Shard 0's queues run on the calling domain; the rest get their own
     OCaml domain. Queue state is owned exclusively by its shard for
     the whole run — the Oxide-style guarantee, delivered by
     construction: no two domains ever touch the same queue. *)
  let workers =
    List.init (t.spec.shards - 1) (fun i ->
        let s = i + 1 in
        Domain.spawn (fun () -> run_shard t s))
  in
  run_shard t 0;
  List.iter Domain.join workers;
  (* Leak check: every buffer was either transmitted or reclaimed along
     a panic path; anything still allocated is a leak. *)
  Array.iter (fun q -> Mempool.assert_no_leaks q.q_pool) t.queue_envs;
  (* The deterministic reduction. Registries merge associatively and
     commutatively (name-sorted, counters add, histograms add
     bucket-wise), and every per-queue number is independent of the
     queue→shard assignment, so the merged registry — and its rendered
     table — is byte-identical for any shard count. *)
  let merged = Telemetry.Registry.merge (Array.to_list t.registries) in
  let queue_stats =
    Array.to_list
      (Array.map
         (fun q ->
           {
             qs_queue = q.q_id;
             qs_batches = q.q_batches;
             qs_packets_out = q.q_packets_out;
             qs_failed = q.q_failed;
             qs_crafted = q.q_crafted;
             qs_served = q.q_served;
             qs_degraded = q.q_degraded;
             qs_dropped = q.q_dropped;
             qs_cycles = Cycles.Clock.now q.q_clock;
           })
         t.queue_envs)
  in
  let sum f = List.fold_left (fun a q -> a + f q) 0 queue_stats in
  let sum_queues f = Array.fold_left (fun a q -> a + f q) 0 t.queue_envs in
  {
    r_shards = t.spec.shards;
    r_queues = t.spec.queues;
    r_batches = sum (fun q -> q.qs_batches);
    r_packets_out = sum (fun q -> q.qs_packets_out);
    r_failed = sum (fun q -> q.qs_failed);
    r_crafted = sum (fun q -> q.qs_crafted);
    r_served = sum (fun q -> q.qs_served);
    r_degraded = sum (fun q -> q.qs_degraded);
    r_dropped = sum (fun q -> q.qs_dropped);
    r_injected =
      sum_queues (fun q ->
          match q.q_faulty with Some fy -> Faultinj.Plan.queue_total fy.fy_plan | None -> 0);
    r_restarts = sum_queues (fun q -> (Faultinj.Supervisor.stats q.q_super).restarts);
    r_queue_stats = queue_stats;
    r_telemetry = merged;
  }
