(* The megaflow flow-cache test harness.

   Three concerns, in order:

   - lifecycle: LRU/TTL/epoch bookkeeping against a reference model
     (capacity never exceeded, eviction order exact, lookups =
     hits + misses by construction);
   - the Zipf workload generator (deterministic across equal seeds,
     plan-shareable, empirical tail matching the configured exponent);
   - slow/fast equivalence: a cached and an uncached engine drive the
     same seeded traffic through the same rule-DB + TTL + Maglev/GRE
     chain while rule edits, backend flips, affinity flushes and
     revocations land mid-trace, and every transmitted packet must be
     byte-identical. The checker *returns* divergences rather than
     asserting, so the deliberately-broken-hook tests can require that
     a missing invalidation is caught. *)

open Netstack

let qt = Seed.to_alcotest

(* ------------------------------------------------------------------ *)
(* Lifecycle: LRU + TTL + epoch against a reference model              *)
(* ------------------------------------------------------------------ *)

let make_fc ?(capacity = 4) ?(ttl_cycles = 1_000_000L) () =
  let clock = Cycles.Clock.create () in
  (clock, Flowcache.create ~clock ~capacity ~ttl_cycles ())

let test_create_validation () =
  let clock = Cycles.Clock.create () in
  Alcotest.check_raises "capacity" (Invalid_argument "Flowcache.create: capacity must be positive")
    (fun () -> ignore (Flowcache.create ~clock ~capacity:0 ~ttl_cycles:1L ()));
  Alcotest.check_raises "ttl" (Invalid_argument "Flowcache.create: ttl_cycles must be positive")
    (fun () -> ignore (Flowcache.create ~clock ~capacity:1 ~ttl_cycles:0L ()));
  Alcotest.check_raises "guard" (Invalid_argument "Flowcache.create: guard_bytes must be positive")
    (fun () -> ignore (Flowcache.create ~clock ~guard_bytes:0 ~capacity:1 ~ttl_cycles:1L ()))

(* Reference LRU: MRU-first key list, no duplicates, truncated to
   capacity. [lru_keys] must match it exactly after every install. *)
let test_lru_reference_model =
  QCheck.Test.make ~name:"LRU install/evict order matches reference model" ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 0 60) (int_range 0 20)))
    (fun (capacity, keys) ->
      let _clock, fc = make_fc ~capacity () in
      let model = ref [] in
      List.iter
        (fun k ->
          Flowcache.install_drop fc ~key:k ~guard:"g";
          model := k :: List.filter (fun x -> x <> k) !model;
          (if List.length !model > capacity then
             model := List.filteri (fun i _ -> i < capacity) !model);
          if Flowcache.length fc > capacity then
            QCheck.Test.fail_reportf "capacity exceeded: %d > %d" (Flowcache.length fc) capacity;
          if Flowcache.lru_keys fc <> !model then
            QCheck.Test.fail_reportf "lru order diverged from model")
        keys;
      let s = Flowcache.stats fc in
      s.Flowcache.installs = List.length keys
      && Flowcache.length fc = List.length !model)

(* The exact LRU conservation law: every install either updates in
   place, fills free space, or evicts exactly one entry. *)
let test_lru_conservation =
  QCheck.Test.make ~name:"installs = in-place updates + residents + evictions" ~count:200
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 0 80) (int_range 0 15)))
    (fun (capacity, keys) ->
      let _clock, fc = make_fc ~capacity () in
      let seen = Hashtbl.create 16 in
      let updates = ref 0 in
      List.iter
        (fun k ->
          if List.mem k (Flowcache.lru_keys fc) then incr updates;
          Flowcache.install_drop fc ~key:k ~guard:"g";
          Hashtbl.replace seen k ())
        keys;
      let s = Flowcache.stats fc in
      s.Flowcache.installs = List.length keys
      && s.Flowcache.installs - !updates
         = Flowcache.length fc + s.Flowcache.evictions_lru + s.Flowcache.evictions_stale)

let flow_a =
  Flow.make ~src_ip:0x0A000001l ~dst_ip:0xC0A80001l ~src_port:1111 ~dst_port:80
    ~protocol:Flow.Tcp

(* A packet environment for access-path tests. *)
let access_env () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:16 () in
  let engine = Engine.create ~clock ~pool () in
  let craft flow ttl =
    let p = Option.get (Mempool.alloc pool) in
    Packet.craft p ~flow ~payload_bytes:18 ~ttl;
    p
  in
  (clock, engine, craft)

let test_ttl_expiry_deterministic () =
  let run () =
    let clock, engine, craft = access_env () in
    let fc = Flowcache.create ~clock ~capacity:4 ~ttl_cycles:10_000L () in
    let p = craft flow_a 64 in
    let key = Flow.hash (Packet.flow_of p) in
    Flowcache.install_drop fc ~key ~guard:(Flowcache.guard_of fc p);
    let first = Flowcache.access fc ~engine ~key p in
    (* Pure virtual time: expiry is a function of charged cycles only. *)
    Cycles.Clock.charge clock (Cycles.Clock.Fixed 10_000);
    let second = Flowcache.access fc ~engine ~key p in
    let third = Flowcache.access fc ~engine ~key p in
    (first, second, third, Flowcache.stats fc, Flowcache.length fc)
  in
  let first, second, third, s, len = run () in
  Alcotest.(check bool) "hit before expiry" true (first = Flowcache.Hit_drop);
  Alcotest.(check bool) "miss after ttl" true (second = Flowcache.Miss);
  Alcotest.(check bool) "entry reclaimed, stays a miss" true (third = Flowcache.Miss);
  Alcotest.(check int) "one ttl eviction" 1 s.Flowcache.evictions_ttl;
  Alcotest.(check int) "entry gone" 0 len;
  (* Determinism: the whole trajectory replays bit-identically. *)
  Alcotest.(check bool) "replay identical" true (run () = (first, second, third, s, len))

let test_invalidate_is_epoch_barrier () =
  let clock, engine, craft = access_env () in
  let fc = Flowcache.create ~clock ~capacity:4 ~ttl_cycles:1_000_000L () in
  let p = craft flow_a 64 in
  let key = Flow.hash (Packet.flow_of p) in
  Flowcache.install_drop fc ~key ~guard:(Flowcache.guard_of fc p);
  let e0 = Flowcache.epoch fc in
  Flowcache.invalidate fc;
  Alcotest.(check int) "epoch bumped" (e0 + 1) (Flowcache.epoch fc);
  Alcotest.(check bool) "stale entry misses" true (Flowcache.access fc ~engine ~key p = Flowcache.Miss);
  let s = Flowcache.stats fc in
  Alcotest.(check int) "stale eviction counted" 1 s.Flowcache.evictions_stale;
  Alcotest.(check int) "invalidation counted" 1 s.Flowcache.invalidations

let test_guard_mismatch_degrades_to_miss () =
  let _clock, engine, craft = access_env () in
  let clock2, fc = make_fc ~capacity:4 () in
  ignore clock2;
  let p64 = craft flow_a 64 and p63 = craft flow_a 63 in
  let key = Flow.hash (Packet.flow_of p64) in
  Flowcache.install_drop fc ~key ~guard:(Flowcache.guard_of fc p64);
  Alcotest.(check bool) "same bytes hit" true (Flowcache.access fc ~engine ~key p64 = Flowcache.Hit_drop);
  (* Same 5-tuple, different TTL byte: key matches, guard must not. *)
  Alcotest.(check bool) "different bytes miss" true
    (Flowcache.access fc ~engine ~key p63 = Flowcache.Miss);
  Alcotest.(check int) "entry survives the mismatch" 1 (Flowcache.length fc)

let test_conservation_lookups =
  QCheck.Test.make ~name:"lookups = hits + misses under random access/install/invalidate"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 0 60) (int_range 0 25))
    (fun script ->
      let clock, engine, craft = access_env () in
      ignore clock;
      let fc = Flowcache.create ~clock:(Cycles.Clock.create ()) ~capacity:4 ~ttl_cycles:50_000L () in
      let p = craft flow_a 64 in
      List.iter
        (fun op ->
          if op < 15 then begin
            let key = op in
            match Flowcache.access fc ~engine ~key p with
            | Flowcache.Miss -> Flowcache.install_drop fc ~key ~guard:(Flowcache.guard_of fc p)
            | _ -> ()
          end
          else if op < 20 then Flowcache.invalidate fc
          else Cycles.Clock.charge (Cycles.Clock.create ()) (Cycles.Clock.Fixed 1))
        script;
      let s = Flowcache.stats fc in
      s.Flowcache.lookups = s.Flowcache.hits + s.Flowcache.misses
      && s.Flowcache.hits = s.Flowcache.served_fast + s.Flowcache.dropped_fast
      && Flowcache.length fc <= Flowcache.capacity fc)

(* ------------------------------------------------------------------ *)
(* Zipf traffic                                                        *)
(* ------------------------------------------------------------------ *)

let test_zipf_deterministic () =
  let mk seed =
    let plan = Traffic.plan (Traffic.Zipf { flows = 500; exponent = 1.3 }) in
    Traffic.of_plan ~rng:(Cycles.Rng.create seed) plan
  in
  let shared = Traffic.plan (Traffic.Zipf { flows = 500; exponent = 1.3 }) in
  let a = mk 9L
  and b = mk 9L
  and c = Traffic.of_plan ~rng:(Cycles.Rng.create 9L) shared
  and d = mk 10L in
  let same = ref true and differ = ref false in
  for _ = 1 to 2000 do
    let fa = Traffic.next_flow a
    and fb = Traffic.next_flow b
    and fc_ = Traffic.next_flow c
    and fd = Traffic.next_flow d in
    same := !same && Flow.equal fa fb && Flow.equal fa fc_;
    differ := !differ || not (Flow.equal fa fd)
  done;
  Alcotest.(check bool) "equal seeds, fresh or shared plan: identical stream" true !same;
  Alcotest.(check bool) "different seed: different stream" true !differ

let test_zipf_tail_matches_exponent () =
  let flows = 300 and exponent = 1.2 and draws = 150_000 in
  let plan = Traffic.plan (Traffic.Zipf { flows; exponent }) in
  let t = Traffic.of_plan ~rng:(Cycles.Rng.create 77L) plan in
  let index = Hashtbl.create flows in
  for i = 0 to flows - 1 do
    Hashtbl.replace index (Traffic.plan_flow_of_index plan i) i
  done;
  let counts = Array.make flows 0 in
  for _ = 1 to draws do
    let i = Hashtbl.find index (Traffic.next_flow t) in
    counts.(i) <- counts.(i) + 1
  done;
  (* Head ranks: the empirical share must match the configured
     power-law share within sampling noise. *)
  for i = 0 to 9 do
    let expected = Traffic.expected_share plan i in
    let empirical = float_of_int counts.(i) /. float_of_int draws in
    let rel = abs_float (empirical -. expected) /. expected in
    if rel > 0.12 then
      Alcotest.failf "rank %d: empirical %.5f vs expected %.5f (rel %.3f)" i empirical expected
        rel
  done;
  (* The tail really is heavy: rank 0 dominates rank 99 by ~100^s. *)
  let ratio = Traffic.expected_share plan 0 /. Traffic.expected_share plan 99 in
  let emp_ratio = float_of_int counts.(0) /. float_of_int (max 1 counts.(99)) in
  Alcotest.(check bool) "power-law head/tail ratio" true
    (emp_ratio > ratio *. 0.6 && emp_ratio < ratio *. 1.6);
  Alcotest.(check int) "every draw accounted for" draws (Array.fold_left ( + ) 0 counts)

let test_zipf_shard_count_invariant () =
  let run shards =
    Experiments.Megaflow.run_stats ~queues:4 ~rounds:60 ~batch_size:16 ~flows:2000
      ~capacity:64 ~cached:true ~shards ()
  in
  let a = run 1 and b = run 2 in
  Alcotest.(check int) "served invariant" a.Shard.r_served b.Shard.r_served;
  Alcotest.(check int) "dropped invariant" a.Shard.r_dropped b.Shard.r_dropped;
  Alcotest.(check string) "telemetry byte-identical"
    (Telemetry.Render.to_string a.Shard.r_telemetry)
    (Telemetry.Render.to_string b.Shard.r_telemetry)

(* ------------------------------------------------------------------ *)
(* Slow/fast equivalence                                               *)
(* ------------------------------------------------------------------ *)

let backends = Array.init 8 (fun i -> Printf.sprintf "backend-%d" i)
let vip = 0xC0A80001

type hooks = { h_rule : bool; h_maglev : bool }

let all_hooks = { h_rule = true; h_maglev = true }

type side = {
  sd_pool : Mempool.t;
  sd_nic : Nic.t;
  sd_db : Ruledb.t;
  sd_mg : Maglev.t;
  sd_fc : Flowcache.t option;
  sd_pipe : Pipeline.t;
}

(* One complete engine over the shared seeded workload. The cached and
   uncached sides are built identically except for the cache. *)
let make_side ~isolated ~cached ~hooks ~flows ~capacity ~seed () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:256 () in
  let engine = Engine.create ~clock ~pool () in
  let plan = Traffic.plan (Traffic.Zipf { flows; exponent = 1.2 }) in
  let nic = Nic.create ~engine ~traffic:(Traffic.of_plan ~rng:(Cycles.Rng.create seed) plan) () in
  let db = Ruledb.create ~clock () in
  let mg = Maglev.create ~clock ~backends () in
  let fc =
    if cached then Some (Flowcache.create ~clock ~capacity ~ttl_cycles:(Int64.shift_left 1L 62) ())
    else None
  in
  (* Each stateful stage declares its owner's mutation hook;
     [Pipeline.create ?flowcache] subscribes the cache through them.
     The negative controls sever a stage's declared hooks instead of
     skipping a manual subscription. *)
  let sever wired stage = if wired then stage else Stage.with_hooks [] stage in
  let stages =
    [
      sever hooks.h_rule (Ruledb.stage db);
      Filters.checksum_verify;
      Filters.ttl_decrement;
      sever hooks.h_maglev (Filters.maglev_gre mg ~vip);
    ]
  in
  let mode =
    if isolated then Pipeline.Isolated (Sfi.Manager.create ~clock ()) else Pipeline.Direct
  in
  { sd_pool = pool; sd_nic = nic; sd_db = db; sd_mg = mg; sd_fc = fc;
    sd_pipe = Pipeline.create ~engine ~mode ?flowcache:fc stages }

(* The chain-state mutations the invalidation hooks must cover. *)
type mutation =
  | Rule_add_drop of int
  | Rule_remove_last
  | Rule_default_flip
  | Backend_shrink
  | Backend_restore
  | Maglev_flush

let mutation_name = function
  | Rule_add_drop p -> Printf.sprintf "rule-add-drop:%d" p
  | Rule_remove_last -> "rule-remove-last"
  | Rule_default_flip -> "rule-default-flip"
  | Backend_shrink -> "backend-shrink"
  | Backend_restore -> "backend-restore"
  | Maglev_flush -> "maglev-flush"

let apply_mutation side m =
  match m with
  | Rule_add_drop lo ->
    Ruledb.add side.sd_db (Ruledb.rule ~src_port:(lo, lo + 499) Ruledb.Drop)
  | Rule_remove_last ->
    let n = Ruledb.rule_count side.sd_db in
    if n > 0 then Ruledb.remove side.sd_db (n - 1)
  | Rule_default_flip ->
    Ruledb.set_default side.sd_db
      (match Ruledb.default_action side.sd_db with
      | Ruledb.Accept -> Ruledb.Drop
      | Ruledb.Drop -> Ruledb.Accept)
  | Backend_shrink -> ignore (Maglev.set_backends side.sd_mg (Array.sub backends 0 5))
  | Backend_restore -> ignore (Maglev.set_backends side.sd_mg backends)
  | Maglev_flush -> ignore (Maglev.flush_connections side.sd_mg)

(* One batch through one side: the transmitted packets' exact bytes
   (in order), or the pipeline error. On error the pipeline has
   already reclaimed every buffer. *)
let step side n =
  let b = Nic.rx_batch side.sd_nic n in
  match Pipeline.run side.sd_pipe b with
  | Ok out ->
    let outs =
      List.map (fun p -> Packet.to_string p) (Batch.packets out)
    in
    ignore (Nic.tx_batch side.sd_nic out);
    Ok outs
  | Error e -> Error (Sfi.Sfi_error.to_string e)

(* A trace event: run some batches, then maybe mutate chain state. *)
type event = { ev_batches : int; ev_mutation : mutation option }

(* Drive both sides through the script; return the first divergence
   (human-readable) or None. Divergence is NOT an assertion failure:
   the broken-hook tests require catching it. *)
let run_equivalence ?(isolated = false) ?(hooks = all_hooks) ?(flows = 12) ?(capacity = 64)
    ?(batch = 8) ~script () =
  let fast = make_side ~isolated ~cached:true ~hooks ~flows ~capacity ~seed:2017L () in
  let slow = make_side ~isolated ~cached:false ~hooks ~flows ~capacity ~seed:2017L () in
  let divergence = ref None in
  let batch_no = ref 0 in
  let check_batch () =
    incr batch_no;
    let f = step fast batch and s = step slow batch in
    if !divergence = None && f <> s then
      divergence :=
        Some
          (Printf.sprintf "batch %d: cached %s, uncached %s" !batch_no
             (match f with
             | Ok l -> Printf.sprintf "served %d" (List.length l)
             | Error e -> "error " ^ e)
             (match s with
             | Ok l -> Printf.sprintf "served %d" (List.length l)
             | Error e -> "error " ^ e))
  in
  List.iter
    (fun ev ->
      for _ = 1 to ev.ev_batches do
        check_batch ()
      done;
      match ev.ev_mutation with
      | Some m ->
        apply_mutation fast m;
        apply_mutation slow m
      | None -> ())
    script;
  (* The ledgers must agree too — a cached drop masquerading as a
     serve would already have diverged above, but the NIC totals
     close the loop. *)
  (if !divergence = None && Nic.tx_packets fast.sd_nic <> Nic.tx_packets slow.sd_nic then
     divergence := Some "tx ledger diverged");
  (if !divergence = None && Nic.rx_packets fast.sd_nic <> Nic.rx_packets slow.sd_nic then
     divergence := Some "rx ledger diverged");
  Mempool.assert_no_leaks fast.sd_pool;
  Mempool.assert_no_leaks slow.sd_pool;
  (!divergence, fast)

let ev ?m n = { ev_batches = n; ev_mutation = m }

(* Every hook, exercised one at a time: warm the cache, mutate, keep
   driving. With the hooks registered there must be no divergence. *)
let test_each_mutation_equivalent () =
  List.iter
    (fun m ->
      let script = [ ev 6; ev 0 ~m; ev 6 ] in
      match run_equivalence ~script () with
      | None, fast ->
        (match m with
        | Maglev_flush | Rule_remove_last -> ()
        | _ ->
          let s = Flowcache.stats (Option.get fast.sd_fc) in
          if s.Flowcache.invalidations = 0 then
            Alcotest.failf "%s: hook never fired" (mutation_name m))
      | Some d, _ -> Alcotest.failf "%s: diverged: %s" (mutation_name m) d)
    [
      Rule_add_drop 1024;
      Rule_remove_last;
      Rule_default_flip;
      Backend_shrink;
      Backend_restore;
      Maglev_flush;
    ]

(* Random interleavings of batches and chain mutations; equivalence
   must survive all of them, thrashing caches included. *)
let arb_script =
  let mutation_gen =
    QCheck.Gen.oneof
      [
        QCheck.Gen.map (fun p -> Rule_add_drop (1024 + (p * 400))) (QCheck.Gen.int_range 0 8);
        QCheck.Gen.return Rule_remove_last;
        QCheck.Gen.return Rule_default_flip;
        QCheck.Gen.return Backend_shrink;
        QCheck.Gen.return Backend_restore;
        QCheck.Gen.return Maglev_flush;
      ]
  in
  let event_gen =
    QCheck.Gen.map2
      (fun n m -> { ev_batches = n; ev_mutation = m })
      (QCheck.Gen.int_range 1 3)
      (QCheck.Gen.opt mutation_gen)
  in
  QCheck.make
    ~print:(fun script ->
      String.concat "; "
        (List.map
           (fun e ->
             Printf.sprintf "%d batches%s" e.ev_batches
               (match e.ev_mutation with None -> "" | Some m -> " then " ^ mutation_name m))
           script))
    QCheck.Gen.(list_size (int_range 1 8) event_gen)

let test_equivalence_random_traces =
  QCheck.Test.make ~name:"cached engine byte-identical under random mutation interleavings"
    ~count:40 arb_script
    (fun script ->
      match run_equivalence ~script () with
      | None, _ -> true
      | Some d, _ -> QCheck.Test.fail_reportf "diverged: %s" d)

let test_equivalence_thrashing =
  QCheck.Test.make ~name:"equivalence holds while the cache thrashes (capacity << flows)"
    ~count:15 arb_script
    (fun script ->
      match run_equivalence ~flows:48 ~capacity:4 ~script () with
      | None, fast ->
        let s = Flowcache.stats (Option.get fast.sd_fc) in
        (* The test only means something if LRU pressure is real. *)
        s.Flowcache.evictions_lru > 0
      | Some d, _ -> QCheck.Test.fail_reportf "diverged: %s" d)

(* Revocation and graceful degradation mid-trace (isolated mode): the
   pipeline owns these invalidations — no state-owner hook involved. *)
let test_equivalence_revocation_mid_trace () =
  let fast = make_side ~isolated:true ~cached:true ~hooks:all_hooks ~flows:12 ~capacity:64
      ~seed:2017L ()
  and slow = make_side ~isolated:true ~cached:false ~hooks:all_hooks ~flows:12 ~capacity:64
      ~seed:2017L () in
  let both f = (f fast, f slow) in
  let check label =
    let a, b = both (fun s -> step s 8) in
    if a <> b then Alcotest.failf "%s: diverged" label
  in
  for _ = 1 to 5 do check "warm" done;
  let e0 = Flowcache.epoch (Option.get fast.sd_fc) in
  ignore (both (fun s -> Pipeline.revoke_stage s.sd_pipe 2));
  (* Both sides lose this batch identically: all-hit fast paths would
     otherwise never observe the revocation, so revoke must have
     invalidated the cache. *)
  (match both (fun s -> step s 8) with
  | Error a, Error b when a = b -> ()
  | _ -> Alcotest.fail "revoked stage: both sides must fail identically");
  Alcotest.(check bool) "revocation invalidated the cache" true
    (Flowcache.epoch (Option.get fast.sd_fc) > e0);
  ignore (both (fun s -> Pipeline.recover_stage s.sd_pipe 2));
  for _ = 1 to 5 do check "after recovery" done;
  (* Graceful degradation: skipping the Maglev/GRE stage stops the
     tunnelling; the skip transition must invalidate or stale
     encapsulations survive. *)
  let e1 = Flowcache.epoch (Option.get fast.sd_fc) in
  ignore (both (fun s -> Pipeline.set_stage_skipped s.sd_pipe 3 true));
  Alcotest.(check bool) "skip transition invalidated the cache" true
    (Flowcache.epoch (Option.get fast.sd_fc) > e1);
  for _ = 1 to 4 do check "degraded" done;
  ignore (both (fun s -> Pipeline.set_stage_skipped s.sd_pipe 3 false));
  for _ = 1 to 4 do check "restored" done;
  Mempool.assert_no_leaks fast.sd_pool;
  Mempool.assert_no_leaks slow.sd_pool

(* The negative controls: sever one invalidation hook, mutate that
   owner's state so cached verdicts go stale, and require that the
   equivalence checker CATCHES the divergence. A fast path that can
   hide a broken hook is worthless as a test harness. *)
let test_broken_rule_hook_caught () =
  let script = [ ev 6; ev 0 ~m:Rule_default_flip; ev 6 ] in
  match run_equivalence ~hooks:{ all_hooks with h_rule = false } ~script () with
  | Some _, _ -> ()
  | None, _ -> Alcotest.fail "severed rule-DB hook went undetected"

let test_broken_maglev_hook_caught () =
  (* Backend churn alone is masked by connection affinity even on the
     uncached side; shrinking the set AND flushing affinity re-steers
     live flows — which a cache with a severed hook cannot see. *)
  let script = [ ev 6; ev 0 ~m:Backend_shrink; ev 0 ~m:Maglev_flush; ev 6 ] in
  match run_equivalence ~hooks:{ all_hooks with h_maglev = false } ~script () with
  | Some _, _ -> ()
  | None, _ -> Alcotest.fail "severed maglev hook went undetected"

(* ------------------------------------------------------------------ *)
(* Header-plane hygiene (Batch.hdr_consistent audit)                   *)
(* ------------------------------------------------------------------ *)

(* The cache keys on the plane's flow memo, so a stage that rewrites
   header bytes and forgets Batch.invalidate_hdr corrupts the fast
   path's keying. Audit: after a full materialize every slot's plane
   and memo must agree with a fresh parse of its wire bytes
   ([hdr_consistent] passes vacuously on dirty or plane-less slots, so
   materializing first makes the check sharp). *)
let plane_consistent b =
  Batch.materialize b;
  let ok = ref true in
  for i = 0 to Batch.length b - 1 do
    ok := !ok && Batch.hdr_consistent b i
  done;
  !ok

let audit_env () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:64 () in
  let engine = Engine.create ~clock ~pool () in
  let plan = Traffic.plan (Traffic.Zipf { flows = 16; exponent = 1.2 }) in
  let nic = Nic.create ~engine ~traffic:(Traffic.of_plan ~rng:(Cycles.Rng.create 5L) plan) () in
  (clock, pool, engine, nic)

let test_stages_keep_plane_consistent () =
  let clock, pool, engine, nic = audit_env () in
  let db = Ruledb.create ~clock () in
  Ruledb.add db (Ruledb.rule ~src_port:(2000, 20_000) Ruledb.Accept);
  let mg = Maglev.create ~clock ~backends () in
  (* Every header-reading or -mutating stage in the catalog that leaves
     the packet parseable (GRE encap ends 5-tuple parsing by design, so
     maglev_gre is exercised through the equivalence suite instead),
     column rewriters and the oracle's byte stages alike — the oracle
     stores straight to wire bytes, so it must drop the plane (the
     regression behind this audit: a stale rx-seeded plane shadowing
     rewritten bytes). *)
  let catalog =
    [
      Ruledb.stage db;
      Filters.checksum_verify;
      Filters.firewall ~name:"fw" (fun f -> f.Flow.src_port land 1 = 0);
      Filters.ttl_decrement;
      Filters.maglev mg;
      Hdr_oracle.ttl_decrement_bytes;
      Hdr_oracle.maglev_bytes mg;
    ]
  in
  List.iter
    (fun (stage : Stage.t) ->
      let b = Nic.rx_batch nic 16 in
      let out = Stage.process stage engine b in
      (* Force the memo on every slot so a stale one cannot hide behind
         an unset bit. *)
      Batch.iteri (fun i _ -> ignore (Batch.flow out i)) out;
      if not (plane_consistent out) then
        Alcotest.failf "stage %s left a stale header plane or flow memo" stage.Stage.name;
      ignore (Nic.tx_batch nic out))
    catalog;
  Mempool.assert_no_leaks pool

(* The memo half of the audit through the public accessors alone: what
   the cache keys on ([Batch.flow], [Batch.flow_key]) must match a
   fresh parse of the materialized bytes. *)
let sidecar_consistent b =
  Batch.materialize b;
  let ok = ref true in
  Batch.iteri
    (fun i p ->
      let wire = Packet.flow_of p in
      ok := !ok && Flow.equal (Batch.flow b i) wire && Batch.flow_key b i = Flow.hash wire)
    b;
  !ok

let test_mutating_stages_keep_sidecar_consistent () =
  let clock, pool, engine, nic = audit_env () in
  let db = Ruledb.create ~clock () in
  Ruledb.add db (Ruledb.rule ~src_port:(2000, 20_000) Ruledb.Accept);
  let mg = Maglev.create ~clock ~backends () in
  (* Every header-mutating stage in the catalog that leaves the packet
     parseable (GRE encap ends 5-tuple parsing by design, so maglev_gre
     is exercised through the equivalence suite instead). The rx path
     seeds every slot's memo, so a rewriter that keeps it stale shows. *)
  let catalog =
    [
      Ruledb.stage db;
      Filters.checksum_verify;
      Filters.ttl_decrement;
      Filters.maglev mg;
      Filters.firewall ~name:"fw" (fun f -> f.Flow.src_port land 1 = 0);
      Hdr_oracle.ttl_decrement_bytes;
      Hdr_oracle.maglev_bytes mg;
    ]
  in
  List.iter
    (fun (stage : Stage.t) ->
      let b = Nic.rx_batch nic 16 in
      let out = Stage.process stage engine b in
      if not (sidecar_consistent out) then
        Alcotest.failf "stage %s left a stale flow memo" stage.Stage.name;
      ignore (Nic.tx_batch nic out))
    catalog;
  Mempool.assert_no_leaks pool

let test_forgetful_stage_caught_by_audit () =
  let _clock, pool, engine, nic = audit_env () in
  (* The regression the audit exists for: rewrite a 5-tuple byte and
     "forget" Batch.invalidate_hdr. *)
  let forgetful =
    Stage.opaque ~name:"bad-dnat" (fun _engine b ->
        Batch.iteri
          (fun i p ->
            ignore (Batch.flow b i);
            Packet.set_dst_ip_int p (Packet.dst_ip_int p lxor 1))
          b;
        b)
  in
  let b = Nic.rx_batch nic 16 in
  let out = Stage.process forgetful engine b in
  Alcotest.(check bool) "audit catches the stale plane" false (plane_consistent out);
  ignore (Nic.tx_batch nic out);
  Mempool.assert_no_leaks pool

let test_mis_keyed_seed_caught () =
  let _clock, pool, _engine, nic = audit_env () in
  (* Negative control for the memo half of the audit: a seed whose
     packed key is not the hash of its flow. *)
  let b = Nic.rx_batch nic 8 in
  if not (plane_consistent b) then Alcotest.fail "batch inconsistent at rx";
  let p = Batch.get b 0 in
  let flow = Packet.flow_of p in
  Batch.seed_hdr b 0 ~flow ~key:(Flow.Key.of_flow flow lxor 1) ~ttl:(Packet.ttl p)
    ~ip_len:(Packet.ip_total_length p) ~csum:(Packet.stored_checksum p);
  Alcotest.(check bool) "mis-keyed seed caught" false (Batch.hdr_consistent b 0);
  Batch.seed_hdr b 0 ~flow ~key:(Flow.Key.of_flow flow) ~ttl:(Packet.ttl p)
    ~ip_len:(Packet.ip_total_length p) ~csum:(Packet.stored_checksum p);
  Alcotest.(check bool) "well-keyed seed passes" true (Batch.hdr_consistent b 0);
  ignore (Nic.tx_batch nic b);
  Mempool.assert_no_leaks pool

let test_forgetful_column_rewriter_caught () =
  let _clock, pool, _engine, nic = audit_env () in
  (* Per column: write the value without its dirty bit (the fault a
     rewriter bypassing [set_col_*] would introduce). The plane then
     claims to be clean while disagreeing with the wire bytes, which is
     exactly what [hdr_consistent] exists to catch. *)
  let pokes =
    [
      ("ttl", `Ttl 7);
      ("src-ip", `Src_ip 0x01020304);
      ("dst-ip", `Dst_ip 0x05060708);
      ("src-port", `Src_port 4);
      ("dst-port", `Dst_port 5);
    ]
  in
  List.iter
    (fun (label, poke) ->
      let b = Nic.rx_batch nic 8 in
      if not (plane_consistent b) then Alcotest.failf "%s: batch dirty at rx" label;
      Batch.poke_col_for_test b 0 poke;
      if Batch.hdr_consistent b 0 then
        Alcotest.failf "%s: forgetful column write not caught" label;
      if not (Batch.hdr_consistent b 1) then
        Alcotest.failf "%s: audit flagged an untouched slot" label;
      ignore (Nic.tx_batch nic b))
    pokes;
  Mempool.assert_no_leaks pool

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "flowcache"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          qt test_lru_reference_model;
          qt test_lru_conservation;
          Alcotest.test_case "ttl expiry deterministic" `Quick test_ttl_expiry_deterministic;
          Alcotest.test_case "invalidate = epoch barrier" `Quick test_invalidate_is_epoch_barrier;
          Alcotest.test_case "guard mismatch degrades to miss" `Quick
            test_guard_mismatch_degrades_to_miss;
          qt test_conservation_lookups;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "deterministic across equal seeds" `Quick test_zipf_deterministic;
          Alcotest.test_case "empirical tail matches exponent" `Slow
            test_zipf_tail_matches_exponent;
          Alcotest.test_case "shard-count invariant" `Slow test_zipf_shard_count_invariant;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "every mutation hook, one at a time" `Quick
            test_each_mutation_equivalent;
          qt test_equivalence_random_traces;
          qt test_equivalence_thrashing;
          Alcotest.test_case "revocation and skip mid-trace (isolated)" `Quick
            test_equivalence_revocation_mid_trace;
          Alcotest.test_case "severed rule-DB hook is caught" `Quick test_broken_rule_hook_caught;
          Alcotest.test_case "severed maglev hook is caught" `Quick
            test_broken_maglev_hook_caught;
        ] );
      ( "sidecar-audit",
        [
          Alcotest.test_case "catalog stages keep the sidecar consistent" `Quick
            test_mutating_stages_keep_sidecar_consistent;
          Alcotest.test_case "forgetful rewriter is caught" `Quick
            test_forgetful_stage_caught_by_audit;
          Alcotest.test_case "catalog stages keep the header plane consistent" `Quick
            test_stages_keep_plane_consistent;
          Alcotest.test_case "forgetful column rewriter is caught, per column" `Quick
            test_forgetful_column_rewriter_caught;
          Alcotest.test_case "mis-keyed seed is caught" `Quick test_mis_keyed_seed_caught;
        ] );
    ]
