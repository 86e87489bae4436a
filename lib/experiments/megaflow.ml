(* E17: the megaflow flow-cache fast path (OVS/DOCA model).

   Two sections, split the same way E14/E16 are:

   - a deterministic section driving the sharded engine over a Zipf
     flow mix with and without a per-queue flow cache, printing only
     virtual counters (no wall-clock) — byte-identical for any shard
     count, and the cached/uncached serve/drop ledgers must agree
     exactly (the slow/fast equivalence claim at engine scale);
   - a wall-clock section driving a single-queue pipeline over a
     million-flow Zipf population, reporting sustained Mpps cached vs
     uncached and the cache hit rate. The NF chain is deliberately
     rule-heavy (a linear-scan 5-tuple firewall in front of the
     Figure-2 Maglev chain), which is exactly the cost profile the
     megaflow cache exists to amortise. *)

let vip = 0xC0A80001
let backends = Array.init 8 (fun i -> Printf.sprintf "backend-%d" i)

let exponent = 1.2
let default_rule_pad = 120
let default_rule_drops = 8

(* [rule_pad] accept rules that cannot match the 10.0.0.0/16 client
   population (so every packet scans past them), then
   [default_rule_drops] rules dropping src-port slices of it (so the
   cache memoises genuine drop verdicts, not only serves). *)
let rule_db ~clock ?(rule_pad = default_rule_pad) () =
  let db = Netstack.Ruledb.create ~clock () in
  for i = 0 to rule_pad - 1 do
    Netstack.Ruledb.add db
      (Netstack.Ruledb.rule
         ~src:(Int32.logor 0x0B000000l (Int32.of_int ((i land 0xff) lsl 8)), 24)
         Netstack.Ruledb.Accept)
  done;
  for i = 0 to default_rule_drops - 1 do
    let lo = 2_000 + (i * 6_000) in
    Netstack.Ruledb.add db
      (Netstack.Ruledb.rule ~src_port:(lo, lo + 1023) Netstack.Ruledb.Drop)
  done;
  db

(* The wall-clock section scans a classifier four times the size of
   the deterministic one: megaflow caches are priced for big rule
   tables, and the slow path should cost what OVS's does. *)
let wall_rule_pad = 760

(* The E17 NF: ruledb -> csum -> ttl -> maglev-gre. The stage
   descriptors declare their state owners' mutation hooks
   ([Ruledb.on_mutate], [Maglev.on_change]); [Pipeline.create]
   subscribes the cache's invalidation through them — the owner-side
   staleness barrier DESIGN.md §12 argues is complete, wired by
   construction. *)
let make_stages ~clock ?(rule_pad = default_rule_pad) () =
  let db = rule_db ~clock ~rule_pad () in
  let mg = Netstack.Maglev.create ~clock ~backends () in
  [
    Netstack.Ruledb.stage db;
    Netstack.Filters.checksum_verify;
    Netstack.Filters.ttl_decrement;
    Netstack.Filters.maglev_gre mg ~vip;
  ]

let shard_stages (ctx : Netstack.Shard.queue_ctx) =
  make_stages ~clock:ctx.Netstack.Shard.qc_clock ()

(* --- Deterministic section ------------------------------------------- *)

let default_stats_queues = 4
let default_stats_rounds = 400
let default_stats_flows = 20_000
(* Small enough that the golden block exhibits the full lifecycle:
   LRU evictions (capacity < per-queue working set) and TTL evictions
   (TTL < a queue's total virtual run time). *)
let default_stats_capacity = 256
let default_stats_ttl = 150_000L

let run_stats ?(queues = default_stats_queues) ?(rounds = default_stats_rounds)
    ?(batch_size = 32) ?(flows = default_stats_flows) ?(capacity = default_stats_capacity)
    ?(ttl_cycles = default_stats_ttl) ?(seed = 2017L) ~cached ~shards () =
  let plan = Netstack.Traffic.plan (Netstack.Traffic.Zipf { flows; exponent }) in
  let cache =
    if cached then
      Some Netstack.Shard.{ c_capacity = capacity; c_ttl_cycles = ttl_cycles }
    else None
  in
  let spec =
    Netstack.Shard.default_spec ~shards ~queues ~rounds ~batch_size ~seed ~flows
      ~traffic:plan ?cache ~mode:Netstack.Shard.Direct ~stages:shard_stages ()
  in
  Netstack.Shard.run (Netstack.Shard.create spec)

let counter_value reg name =
  match Telemetry.Registry.find reg name with
  | Some (Telemetry.Registry.Counter c) -> Telemetry.Counter.value c
  | Some _ | None -> 0

(* One deterministic block: the engine ledger, then (cached only) the
   cache's own conservation line, then the merged telemetry table.
   Nothing here depends on the shard count or the wall clock. *)
let print_stats ~cached (r : Netstack.Shard.result) =
  let tag = if cached then "cached" else "uncached" in
  Printf.printf "flowcache counts (%s): crafted=%d served=%d degraded=%d dropped=%d\n" tag
    r.Netstack.Shard.r_crafted r.Netstack.Shard.r_served r.Netstack.Shard.r_degraded
    r.Netstack.Shard.r_dropped;
  (if cached then begin
     let reg = r.Netstack.Shard.r_telemetry in
     let v n = counter_value reg ("netstack.flowcache." ^ n) in
     let lookups = v "lookups" and hits = v "hits" and misses = v "misses" in
     Printf.printf
       "flowcache lifecycle (%s): lookups=%d hits=%d misses=%d conserved=%b installs=%d \
        evict_lru=%d evict_ttl=%d evict_stale=%d invalidations=%d\n"
       tag lookups hits misses
       (lookups = hits + misses)
       (v "installs") (v "evictions_lru") (v "evictions_ttl") (v "evictions_stale")
       (v "invalidations")
   end);
  Telemetry.Render.print
    ~title:(Printf.sprintf "flowcache telemetry (%s)" tag)
    r.Netstack.Shard.r_telemetry;
  print_newline ()

type stats_pair = {
  sp_cached : Netstack.Shard.result;
  sp_uncached : Netstack.Shard.result;
}

let run_stats_pair ~shards =
  {
    sp_cached = run_stats ~cached:true ~shards ();
    sp_uncached = run_stats ~cached:false ~shards ();
  }

let ledger_match p =
  let c = p.sp_cached and u = p.sp_uncached in
  c.Netstack.Shard.r_crafted = u.Netstack.Shard.r_crafted
  && c.Netstack.Shard.r_served = u.Netstack.Shard.r_served
  && c.Netstack.Shard.r_degraded = u.Netstack.Shard.r_degraded
  && c.Netstack.Shard.r_dropped = u.Netstack.Shard.r_dropped

let print_stats_pair p =
  print_stats ~cached:true p.sp_cached;
  print_stats ~cached:false p.sp_uncached;
  Printf.printf "flowcache ledger match (cached vs uncached): %b\n" (ledger_match p)

(* --- Wall-clock section ----------------------------------------------- *)

type wall_variant = {
  wv_packets : int;
  wv_packets_out : int;
  wv_wall_s : float;
  wv_mpps : float;       (* end to end: rx craft + pipeline + tx *)
  wv_pipe_mpps : float;  (* generator cost subtracted *)
  wv_hit_rate : float;   (* 0 for the uncached variant *)
}

type wall_result = {
  w_flows : int;
  w_exponent : float;
  w_capacity : int;
  w_batch_size : int;
  w_rules : int;
  w_gen_mpps : float;
  w_uncached : wall_variant;
  w_cached : wall_variant;
  w_speedup : float;
  w_pipe_speedup : float;
}

(* A fresh single-queue environment over the shared traffic plan. *)
let wall_env ~plan ~seed ~pool_capacity =
  let clock = Cycles.Clock.create () in
  let pool = Netstack.Mempool.create ~clock ~capacity:pool_capacity () in
  let engine = Netstack.Engine.create ~clock ~pool () in
  let rng = Cycles.Rng.create seed in
  let traffic = Netstack.Traffic.of_plan ~rng plan in
  let nic = Netstack.Nic.create ~engine ~traffic () in
  (clock, engine, nic)

(* The rx loop alone (craft + free): what the harness costs without
   any pipeline, measured so the pipeline-only rate can be reported
   with the generator subtracted — both variants pay the identical
   crafting bill, and it would otherwise flatter neither. *)
let run_generator ~plan ~seed ~batch_size ~warmup ~batches =
  let _clock, _engine, nic = wall_env ~plan ~seed ~pool_capacity:4096 in
  let serve n =
    let received = ref 0 in
    for _ = 1 to n do
      let b = Netstack.Nic.rx_batch nic batch_size in
      received := !received + Netstack.Batch.length b;
      Netstack.Nic.drop_batch nic b
    done;
    !received
  in
  ignore (serve warmup);
  let packets, wall = Table.time (fun () -> serve batches) in
  (packets, wall)

let run_wall_variant ~plan ~seed ~capacity ~batch_size ~warmup ~batches ~rule_pad ~cached =
  let clock, engine, nic = wall_env ~plan ~seed ~pool_capacity:4096 in
  let fc =
    if cached then
      Some
        (Netstack.Flowcache.create ~clock ~capacity
           ~ttl_cycles:(Int64.shift_left 1L 62) ())
    else None
  in
  let stages = make_stages ~clock ~rule_pad () in
  let pipe =
    Netstack.Pipeline.create ~engine ~mode:Netstack.Pipeline.Direct ?flowcache:fc stages
  in
  let sent = ref 0 in
  let serve n =
    let received = ref 0 in
    for _ = 1 to n do
      let b = Netstack.Nic.rx_batch nic batch_size in
      received := !received + Netstack.Batch.length b;
      match Netstack.Pipeline.run pipe b with
      | Ok out -> sent := !sent + Netstack.Nic.tx_batch nic out
      | Error _ -> assert false (* Direct mode cannot return Error *)
    done;
    !received
  in
  ignore (serve warmup);
  sent := 0;
  let packets, wall = Table.time (fun () -> serve batches) in
  let hit_rate =
    match fc with
    | None -> 0.
    | Some fc ->
      let s = Netstack.Flowcache.stats fc in
      if s.Netstack.Flowcache.lookups = 0 then 0.
      else
        float_of_int s.Netstack.Flowcache.hits /. float_of_int s.Netstack.Flowcache.lookups
  in
  {
    wv_packets = packets;
    wv_packets_out = !sent;
    wv_wall_s = wall;
    wv_mpps = float_of_int packets /. wall /. 1e6;
    wv_pipe_mpps = 0.;  (* filled in by [run_wall] once the generator is measured *)
    wv_hit_rate = hit_rate;
  }

let run_wall () =
  let flows = 1_000_000 and capacity = 131_072 and batch_size = 64 in
  let warmup = 1_000 and batches = 12_000 and rule_pad = wall_rule_pad and seed = 2017L in
  let plan = Netstack.Traffic.plan (Netstack.Traffic.Zipf { flows; exponent }) in
  let gen_packets, gen_wall = run_generator ~plan ~seed ~batch_size ~warmup ~batches in
  let gen_mpps = float_of_int gen_packets /. gen_wall /. 1e6 in
  (* Per-packet generator cost, used to back the harness out of each
     variant's wall time (clamped: the subtraction can only consume
     90% of a measurement, so a pathological host cannot produce
     negative rates). *)
  let gen_s_per_pkt = gen_wall /. float_of_int gen_packets in
  let finish v =
    let harness = min (gen_s_per_pkt *. float_of_int v.wv_packets) (0.9 *. v.wv_wall_s) in
    { v with wv_pipe_mpps = float_of_int v.wv_packets /. (v.wv_wall_s -. harness) /. 1e6 }
  in
  let uncached =
    finish
      (run_wall_variant ~plan ~seed ~capacity ~batch_size ~warmup ~batches ~rule_pad
         ~cached:false)
  in
  let cached =
    finish
      (run_wall_variant ~plan ~seed ~capacity ~batch_size ~warmup ~batches ~rule_pad
         ~cached:true)
  in
  {
    w_flows = flows;
    w_exponent = exponent;
    w_capacity = capacity;
    w_batch_size = batch_size;
    w_rules = rule_pad + default_rule_drops;
    w_gen_mpps = gen_mpps;
    w_uncached = uncached;
    w_cached = cached;
    w_speedup = cached.wv_mpps /. uncached.wv_mpps;
    w_pipe_speedup = cached.wv_pipe_mpps /. uncached.wv_pipe_mpps;
  }

let print_wall w =
  Printf.printf
    "E17 (extension): megaflow flow-cache fast path (wall clock)\n\
    \  Zipf(s=%.2f) over %d flows, cache capacity %d, batch=%d; NF =\n\
    \  ruledb(%d rules, linear scan) -> csum -> ttl -> maglev-gre\n"
    w.w_exponent w.w_flows w.w_capacity w.w_batch_size w.w_rules;
  Table.print
    ~header:[ "path"; "packets"; "tx"; "Mpps e2e"; "Mpps pipeline"; "hit rate"; "speedup" ]
    [
      [
        "uncached";
        Table.fi w.w_uncached.wv_packets;
        Table.fi w.w_uncached.wv_packets_out;
        Table.ff ~decimals:3 w.w_uncached.wv_mpps;
        Table.ff ~decimals:3 w.w_uncached.wv_pipe_mpps;
        "-";
        "1.00x";
      ];
      [
        "cached";
        Table.fi w.w_cached.wv_packets;
        Table.fi w.w_cached.wv_packets_out;
        Table.ff ~decimals:3 w.w_cached.wv_mpps;
        Table.ff ~decimals:3 w.w_cached.wv_pipe_mpps;
        Table.fpct w.w_cached.wv_hit_rate;
        Table.ff ~decimals:2 w.w_pipe_speedup ^ "x";
      ];
    ];
  Printf.printf
    "  generator alone: %.3f Mpps (both variants pay it; the pipeline column\n\
    \  backs it out). Target: >= 5x pipeline speedup at >= 90%% hit rate — %s\n"
    w.w_gen_mpps
    (if w.w_pipe_speedup >= 5.0 && w.w_cached.wv_hit_rate >= 0.9 then "met" else "MISSED")
