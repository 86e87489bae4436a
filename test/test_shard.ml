(* Tests for the sharded multicore engine: RSS steering, the
   shard-count-invariance of the merged telemetry (the tentpole
   determinism claim), per-flow ordering, fault containment across
   shards, and the associativity of the registry merge. *)

open Netstack

let qt = Seed.to_alcotest

(* ------------------------------------------------------------------ *)
(* RSS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rss_validation () =
  Alcotest.check_raises "zero queues" (Invalid_argument "Rss.create: queues must be positive")
    (fun () -> ignore (Rss.create ~queues:0 ()));
  Alcotest.check_raises "more queues than entries"
    (Invalid_argument "Rss.create: more queues than table entries") (fun () ->
      ignore (Rss.create ~queues:129 ()))

let test_rss_partition () =
  let queues = 8 in
  let rss = Rss.create ~queues () in
  let rng = Cycles.Rng.create 42L in
  let traffic = Traffic.create ~rng (Traffic.Uniform { flows = 512 }) in
  let hit = Array.make queues 0 in
  for _ = 1 to 4096 do
    let f = Traffic.next_flow traffic in
    let q = Rss.queue rss f in
    Alcotest.(check bool) "queue in range" true (q >= 0 && q < queues);
    Alcotest.(check int) "steering is stable" q (Rss.queue rss f);
    hit.(q) <- hit.(q) + 1
  done;
  (* FNV over 512 uniform flows must not starve any of 8 queues. *)
  Array.iteri
    (fun q n -> if n = 0 then Alcotest.failf "queue %d got no traffic" q)
    hit

(* ------------------------------------------------------------------ *)
(* Shard engine: determinism across shard counts                       *)
(* ------------------------------------------------------------------ *)

(* Small but non-trivial: 4 queues, enough rounds for every queue to
   see traffic and the histograms to have real shape. *)
let small_spec ?(mode = Shard.Direct) ?(shards = 1) ?stages () =
  let stages =
    match stages with
    | Some s -> s
    | None -> fun (_ : Shard.queue_ctx) -> [ Filters.checksum_verify; Filters.ttl_decrement ]
  in
  { (Shard.default_spec ~shards ~queues:4 ~rounds:60 ~batch_size:16 ~flows:256 ~mode ~stages ())
    with Shard.pool_capacity = 64 }

let render r = Telemetry.Render.to_string r.Shard.r_telemetry

let stats_of r =
  List.map
    (fun (q : Shard.queue_stats) ->
      (q.qs_queue, q.qs_batches, q.qs_packets_out, q.qs_failed, q.qs_cycles))
    r.Shard.r_queue_stats

let test_shard_count_invariance () =
  let results =
    List.map (fun shards -> Shard.run (Shard.create (small_spec ~shards ()))) [ 1; 2; 4 ]
  in
  match results with
  | [ r1; r2; r4 ] ->
    Alcotest.(check bool) "work happened" true (r1.Shard.r_packets_out > 0);
    Alcotest.(check string) "telemetry 1 = 2 shards" (render r1) (render r2);
    Alcotest.(check string) "telemetry 1 = 4 shards" (render r1) (render r4);
    (* Not just the aggregate: every queue's trajectory is identical. *)
    Alcotest.(check bool) "queue stats 1 = 2 shards" true (stats_of r1 = stats_of r2);
    Alcotest.(check bool) "queue stats 1 = 4 shards" true (stats_of r1 = stats_of r4);
    Alcotest.(check int) "batches invariant" r1.Shard.r_batches r2.Shard.r_batches;
    Alcotest.(check int) "packets invariant" r1.Shard.r_packets_out r4.Shard.r_packets_out
  | _ -> assert false

let test_shard_modes_all_deterministic () =
  List.iter
    (fun mode ->
      let run shards = Shard.run (Shard.create (small_spec ~mode ~shards ())) in
      let r1 = run 1 and r2 = run 2 in
      Alcotest.(check string)
        (Shard.mode_name mode ^ " telemetry invariant")
        (render r1) (render r2))
    Shard.[ Isolated; Copying; Tagged ]

(* The isolation cost is priced in virtual cycles, so it is a fixed
   figure of the spec: the isolated run charges more per batch than the
   direct one, and both repeat exactly. *)
let test_shard_isolation_cost () =
  let cycles_per_batch mode =
    let r = Shard.run (Shard.create (small_spec ~mode ())) in
    let cycles =
      List.fold_left
        (fun acc (q : Shard.queue_stats) -> Int64.add acc q.qs_cycles)
        0L r.Shard.r_queue_stats
    in
    Int64.to_float cycles /. float_of_int r.Shard.r_batches
  in
  let direct = cycles_per_batch Shard.Direct in
  let isolated = cycles_per_batch Shard.Isolated in
  Alcotest.(check bool) "isolation costs cycles" true (isolated > direct);
  Alcotest.(check (pair (float 0.) (float 0.)))
    "virtual cycles repeat exactly" (direct, isolated)
    (cycles_per_batch Shard.Direct, cycles_per_batch Shard.Isolated)

let test_shard_validation () =
  let spec = small_spec () in
  Alcotest.check_raises "zero shards" (Invalid_argument "Shard.create: shards must be positive")
    (fun () -> ignore (Shard.create { spec with Shard.shards = 0 }));
  Alcotest.check_raises "more shards than queues"
    (Invalid_argument "Shard.create: fewer queues than shards") (fun () ->
      ignore (Shard.create { spec with Shard.shards = 5 }));
  let t = Shard.create spec in
  ignore (Shard.run t);
  Alcotest.check_raises "single shot" (Invalid_argument "Shard.run: a sharded engine is single-shot")
    (fun () -> ignore (Shard.run t))

(* ------------------------------------------------------------------ *)
(* Per-flow ordering: each queue sees exactly its RSS share of the     *)
(* global arrival stream, in arrival order                             *)
(* ------------------------------------------------------------------ *)

let test_shard_preserves_flow_order () =
  let queues = 4 and rounds = 40 and batch_size = 16 and flows = 128 in
  let seed = 99L in
  (* Queues are constructed in ascending id order, so a creation
     counter in the stages closure identifies the queue. Run on one
     shard so the recording arrays need no synchronisation. *)
  let recorded = Array.make queues [] in
  let next_queue = ref 0 in
  let stages (_ : Shard.queue_ctx) =
    let q = !next_queue in
    incr next_queue;
    [
      Stage.opaque ~name:"recorder" (fun _engine b ->
          Batch.iter (fun p -> recorded.(q) <- Packet.flow_of p :: recorded.(q)) b;
          b);
    ]
  in
  let spec =
    { (Shard.default_spec ~shards:1 ~queues ~rounds ~batch_size ~seed ~flows
         ~mode:Shard.Direct ~stages ())
      with Shard.pool_capacity = 64 }
  in
  ignore (Shard.run (Shard.create spec));
  (* Reference: the global arrival stream, filtered by the same RSS
     table each queue used. *)
  let rss = Rss.create ~queues () in
  let traffic =
    Traffic.create ~rng:(Cycles.Rng.create seed) (Traffic.Uniform { flows })
  in
  let expected = Array.make queues [] in
  for _ = 1 to rounds * batch_size do
    let f = Traffic.next_flow traffic in
    let q = Rss.queue rss f in
    expected.(q) <- f :: expected.(q)
  done;
  for q = 0 to queues - 1 do
    let got = List.rev recorded.(q) and want = List.rev expected.(q) in
    Alcotest.(check int)
      (Printf.sprintf "queue %d arrival count" q)
      (List.length want) (List.length got);
    List.iter2
      (fun g w ->
        if not (Flow.equal g w) then Alcotest.failf "queue %d: flow out of order" q)
      got want
  done

(* ------------------------------------------------------------------ *)
(* Fault containment under sharding                                    *)
(* ------------------------------------------------------------------ *)

let test_shard_isolated_faults_contained () =
  let stages (_ : Shard.queue_ctx) = [ Filters.fault_injector ~panic_after:2 ] in
  let spec =
    { (Shard.default_spec ~shards:2 ~queues:2 ~rounds:8 ~batch_size:8 ~flows:64
         ~mode:Shard.Isolated ~stages ())
      with Shard.pool_capacity = 64 }
  in
  (* Shard.run itself asserts no buffers leaked on the panic path. *)
  let r = Shard.run (Shard.create spec) in
  Alcotest.(check bool) "first batches got through" true (r.Shard.r_packets_out > 0);
  Alcotest.(check bool) "injector crashed" true (r.Shard.r_failed > 0);
  (* Without a fault spec, each queue's supervisor still restarts the
     crashed stage (policy Immediate). *)
  Alcotest.(check bool) "supervisor restarted it" true (r.Shard.r_restarts > 0);
  (* The injector crash-loops after its first batch; recovery keeps
     service up, so every queue still attempts every round. *)
  List.iter
    (fun (q : Shard.queue_stats) ->
      Alcotest.(check int)
        (Printf.sprintf "queue %d: all later batches failed" q.qs_queue)
        (q.qs_batches - 1) q.qs_failed)
    r.Shard.r_queue_stats

(* ------------------------------------------------------------------ *)
(* Registry merge: associativity and exactness                         *)
(* ------------------------------------------------------------------ *)

(* Operations over a fixed pool of metric names (two counters, one
   gauge, one histogram), so independently-generated registries always
   have mergeable (same-kind) name collisions. *)
let apply_ops reg ops =
  List.iter
    (fun (which, v) ->
      match which mod 4 with
      | 0 -> Telemetry.Counter.add (Telemetry.Registry.counter reg "m0") (abs v)
      | 1 -> Telemetry.Counter.incr (Telemetry.Registry.counter reg "m1")
      | 2 -> Telemetry.Gauge.add (Telemetry.Registry.gauge reg "g0") v
      | _ -> Telemetry.Histogram.observe (Telemetry.Registry.histogram reg "h0") (abs v))
    ops

let ops_gen = QCheck.(list_of_size Gen.(int_range 0 40) (pair (int_range 0 3) (int_range (-500) 5000)))

let prop_merge_associative =
  QCheck.Test.make ~name:"registry merge is associative" ~count:100
    QCheck.(triple ops_gen ops_gen ops_gen)
    (fun (o1, o2, o3) ->
      let reg ops =
        let r = Telemetry.Registry.create () in
        apply_ops r ops;
        r
      in
      let render r = Telemetry.Render.to_string r in
      let r1 () = reg o1 and r2 () = reg o2 and r3 () = reg o3 in
      let left =
        Telemetry.Registry.merge [ Telemetry.Registry.merge [ r1 (); r2 () ]; r3 () ]
      in
      let right =
        Telemetry.Registry.merge [ r1 (); Telemetry.Registry.merge [ r2 (); r3 () ] ]
      in
      let flat = Telemetry.Registry.merge [ r1 (); r2 (); r3 () ] in
      String.equal (render left) (render right) && String.equal (render left) (render flat))

let prop_merge_matches_unsharded =
  QCheck.Test.make ~name:"sharded merge = unsharded recording" ~count:50
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(int_range 1 60) (pair (int_range 0 3) (int_range 0 2000))))
    (fun (nshards, ops) ->
      (* Record the same op stream once into a single registry and once
         partitioned round-robin over n registries, then merged. *)
      let whole = Telemetry.Registry.create () in
      apply_ops whole ops;
      let parts = Array.init nshards (fun _ -> Telemetry.Registry.create ()) in
      List.iteri (fun i op -> apply_ops parts.(i mod nshards) [ op ]) ops;
      String.equal
        (Telemetry.Render.to_string whole)
        (Telemetry.Render.to_string (Telemetry.Registry.merge (Array.to_list parts))))

let () =
  Alcotest.run "shard"
    [
      ( "rss",
        [
          Alcotest.test_case "validation" `Quick test_rss_validation;
          Alcotest.test_case "partition + stability" `Quick test_rss_partition;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "shard-count invariance" `Quick test_shard_count_invariance;
          Alcotest.test_case "all modes deterministic" `Quick test_shard_modes_all_deterministic;
          Alcotest.test_case "isolation cost repeats" `Quick test_shard_isolation_cost;
          Alcotest.test_case "validation + single shot" `Quick test_shard_validation;
          Alcotest.test_case "per-flow order preserved" `Quick test_shard_preserves_flow_order;
        ] );
      ( "faults",
        [ Alcotest.test_case "contained across shards" `Quick test_shard_isolated_faults_contained ] );
      ( "merge",
        [ qt prop_merge_associative; qt prop_merge_matches_unsharded ] );
    ]
