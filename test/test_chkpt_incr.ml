(* Tests for the incremental checkpoint engine: generation-stamped
   dirty tracking on the trie, shadow-snapshot sync, byte-identical
   restore, the chunk-tracked flat array, the flow table's checkpoint
   lifecycle, and the supervisor restore path. *)

open Chkpt

(* ------------------------------------------------------------------ *)
(* Trace machinery                                                     *)
(* ------------------------------------------------------------------ *)

(* An op is (tag, rule-index, 16-bit prefix): tag 0 inserts (or
   replaces), anything else is a hit-bumping lookup. Content-only dirt
   (lookup hits) is exactly what the shadow's in-place reconciliation
   pass must get right, so traces mix both. *)
let op_gen =
  QCheck.(triple (int_range 0 3) (int_range 0 7) (int_range 0 0xFFFF))

let trace_gen = QCheck.(list_of_size Gen.(int_range 0 40) op_gen)

let make_rules () =
  Array.init 8 (fun i ->
      Trie.make_rule ~id:i (if i mod 2 = 0 then Trie.Allow else Trie.Deny))

let apply t rules (tag, ri, p16) =
  let prefix = Int32.shift_left (Int32.of_int p16) 16 in
  match tag with
  | 0 -> Trie.insert t ~prefix ~len:16 ~rule:rules.(ri)
  | _ -> ignore (Trie.lookup t prefix)

(* ------------------------------------------------------------------ *)
(* Incremental restore = the state at the last sync, byte for byte     *)
(* ------------------------------------------------------------------ *)

let prop_incr_restore_byte_identical =
  QCheck.Test.make ~name:"incremental restore is byte-identical" ~count:80
    QCheck.(triple trace_gen trace_gen trace_gen)
    (fun (setup, epoch1, epoch2) ->
      let rules = make_rules () in
      let t = Trie.create () in
      List.iter (apply t rules) setup;
      let tracker = Trie.tracker t in
      ignore (Incr.sync tracker);
      (* Two full mutate/sync/mutate/restore epochs: the second one
         exercises the shadow after a restore, not just after syncs. *)
      List.for_all
        (fun epoch ->
          List.iter (apply t rules) epoch;
          ignore (Incr.sync tracker);
          let reference = Trie.render t in
          List.iter (apply t rules) epoch;
          List.iter (apply t rules) (List.rev epoch);
          ignore (Incr.restore tracker);
          String.equal reference (Trie.render t) && Trie.sharing_preserved t)
        [ epoch1; epoch2 ])

(* ------------------------------------------------------------------ *)
(* Dirty work is bounded by the nodes actually stamped                 *)
(* ------------------------------------------------------------------ *)

let prop_dirty_bounded_by_stamped =
  QCheck.Test.make ~name:"dirty nodes <= nodes stamped by mutation" ~count:80
    QCheck.(pair trace_gen trace_gen)
    (fun (setup, epoch) ->
      let rules = make_rules () in
      let t = Trie.create () in
      List.iter (apply t rules) setup;
      let tracker = Trie.tracker t in
      (* The first sync builds the shadow from nothing and is O(heap)
         by design; the bound is a steady-state claim. *)
      ignore (Incr.sync tracker);
      List.iter (apply t rules) epoch;
      let stamped = Trie.stamped_since_sync t in
      let stats = Incr.sync tracker in
      stats.Checkpointable.dirty_nodes <= stamped)

(* ------------------------------------------------------------------ *)
(* Chunk-tracked flat array vs a reference model                       *)
(* ------------------------------------------------------------------ *)

let prop_iarr_matches_model =
  (* Ops: (kind, index, value). kind 0-3 writes; 4 syncs; 5 restores
     (skipped until the first sync, mirroring the API contract). *)
  QCheck.Test.make ~name:"iarr tracks a reference array" ~count:120
    QCheck.(
      list_of_size
        Gen.(int_range 1 60)
        (triple (int_range 0 5) (int_range 0 63) (int_range (-1000) 1000)))
    (fun ops ->
      let n = 64 in
      let ia = Incr.iarr ~chunk:8 (Array.make n 0) in
      let tracker = Incr.iarr_tracker ia in
      let live = Array.make n 0 in
      let snap = ref None in
      List.iter
        (fun (kind, i, v) ->
          if kind <= 3 then begin
            Incr.iarr_set ia i v;
            live.(i) <- v
          end
          else if kind = 4 then begin
            ignore (Incr.sync tracker);
            snap := Some (Array.copy live)
          end
          else
            match !snap with
            | None -> ()
            | Some s ->
              ignore (Incr.restore tracker);
              Array.blit s 0 live 0 n)
        ops;
      Array.for_all (fun i -> Incr.iarr_get ia i = live.(i)) (Array.init n Fun.id))

(* The recovered-table twin: [iarr_of_chunks] adopts the verified
   payloads as the shadow, so restore before any sync returns to the
   recovered image, every sync leaves the shadow equal to the live
   chunks' encoding, and the first sync reports every chunk captured,
   as a fresh [iarr]'s first sync does. *)
let prop_recovered_iarr_matches_model =
  let value =
    QCheck.Gen.(
      oneof [ int_range (-1000) 1000; int; oneofl [ min_int; max_int; 0; -1 ] ])
  in
  (* (chunk size, initial slots), then ops as above: kind 0-3 writes
     slot [i mod n], 4 syncs, 5 restores. *)
  let table = QCheck.Gen.(pair (int_range 1 9) (list_size (int_range 1 70) value)) in
  let op = QCheck.Gen.(triple (int_range 0 5) (int_range 0 1_000) value) in
  QCheck.Test.make ~name:"recovered iarr tracks a reference array" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(pair (pair int (list int)) (list (triple int int int)))
       QCheck.Gen.(pair table (list_size (int_range 1 60) op)))
    (fun ((chunk, values), ops) ->
      let initial = Array.of_list values in
      let n = Array.length initial in
      let image = Incr.iarr_to_chunks (Incr.iarr ~chunk (Array.copy initial)) in
      let ia =
        match Incr.iarr_of_chunks image with
        | Ok ia -> ia
        | Error m -> QCheck.Test.fail_report m
      in
      let tracker = Incr.iarr_tracker ia in
      let live = Array.copy initial in
      let snap = Array.copy initial in
      let first = ref true in
      let all k f = Array.for_all Fun.id (Array.init k f) in
      let matches () = all n (fun i -> Incr.iarr_get ia i = live.(i)) in
      let shadow_is_live () =
        let synced = Incr.iarr_synced_chunks ia and chunks = Incr.iarr_chunks ia in
        Array.length synced = chunks + 1
        && all chunks (fun c -> synced.(c + 1) = Incr.iarr_chunk_bytes ia c)
      in
      List.for_all
        (fun (kind, i, v) ->
          if kind <= 3 then begin
            Incr.iarr_set ia (i mod n) v;
            live.(i mod n) <- v;
            true
          end
          else if kind = 4 then begin
            let stats = Incr.sync tracker in
            let fresh = Incr.iarr_tracker (Incr.iarr ~chunk (Array.copy live)) in
            let fresh = Incr.sync fresh in
            let reported = (not !first) || stats = fresh in
            first := false;
            Array.blit live 0 snap 0 n;
            reported && shadow_is_live () && matches ()
          end
          else begin
            ignore (Incr.restore tracker);
            Array.blit snap 0 live 0 n;
            matches ()
          end)
        ops
      && matches ())

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_tracker_rejects_double_attach () =
  let t = Trie.create () in
  let _ = Trie.tracker t in
  Alcotest.check_raises "second tracker"
    (Invalid_argument "Trie.tracker: trie is already tracked") (fun () ->
      ignore (Trie.tracker t))

let test_restore_before_sync_rejected () =
  let t = Trie.create () in
  let tracker = Trie.tracker t in
  Alcotest.check_raises "restore before sync"
    (Invalid_argument "Trie: restore before first incremental sync") (fun () ->
      ignore (Incr.restore tracker))

let counter registry name =
  match Telemetry.Registry.find registry name with
  | Some (Telemetry.Registry.Counter c) -> Telemetry.Counter.value c
  | _ -> Alcotest.fail (name ^ " missing")

(* The flow table's checkpoint lifecycle: its tracker syncs and
   restores the dirty chunks, and [Flowtab] counts and records each
   snapshot and rollback. *)
let test_store_incr_lifecycle () =
  let ia = Incr.iarr ~chunk:4 (Array.make 16 0) in
  let tracker = Incr.iarr_tracker ia in
  Alcotest.check_raises "restore before sync"
    (Invalid_argument "Incr.iarr: restore before first sync") (fun () ->
      ignore (Incr.restore tracker));
  Incr.iarr_set (Incr.value tracker) 3 7;
  ignore (Incr.sync tracker);
  Incr.iarr_set ia 3 99;
  Incr.iarr_set ia 12 5;
  ignore (Incr.restore tracker);
  Alcotest.(check int) "slot 3 restored" 7 (Incr.iarr_get ia 3);
  Alcotest.(check int) "slot 12 restored" 0 (Incr.iarr_get ia 12);
  let registry = Telemetry.Registry.create () in
  let ctx =
    {
      Netstack.Shard.qc_queue = 0;
      qc_clock = Cycles.Clock.create ();
      qc_registry = registry;
      qc_flowcache = None;
    }
  in
  let ft = Netstack.Flowtab.create ~buckets:16 ~chunk:4 ctx in
  Alcotest.(check int) "baseline snapshot recorded" 1 (counter registry "chkpt.snapshots");
  Netstack.Flowtab.rollback ft;
  Alcotest.(check int) "rollbacks counted" 1 (Netstack.Flowtab.rollbacks ft);
  Alcotest.(check int) "rollback recorded" 1 (counter registry "chkpt.rollbacks")

let test_tele_record_incr () =
  let registry = Telemetry.Registry.create () in
  let tele = Tele.v registry in
  Tele.record_incr tele
    { Checkpointable.nodes = 200; rc_encounters = 0; rc_copies = 0; rc_dedup_hits = 0;
      hash_lookups = 0; dirty_nodes = 20; reused_nodes = 180 };
  let gauge =
    match Telemetry.Registry.find registry "chkpt.dirty_ratio_pct" with
    | Some (Telemetry.Registry.Gauge g) -> Telemetry.Gauge.value g
    | _ -> Alcotest.fail "dirty_ratio_pct gauge missing"
  in
  Alcotest.(check int) "ratio gauge" 10 gauge;
  Alcotest.(check int) "dirty counter" 20 (counter registry "chkpt.dirty_nodes");
  Alcotest.(check int) "reused counter" 180 (counter registry "chkpt.reused_nodes")

(* The supervisor path: a storm with rollback-on-restart enabled must
   actually restore (restores > 0), conserve every crafted packet, and
   beat the restore-disabled run on nothing — the ledger is the claim
   here, determinism is test_faultinj's. *)
let test_storm_restore_path () =
  let policy = List.hd Experiments.Storm.default_policies in
  let r, restores, _ =
    Experiments.Storm.run_one ~queues:4 ~rounds:60 ~batch_size:8 ~rate:0.08
      ~fault_seed:99L ~shards:1 ~policy ~flowtab:Netstack.Flowtab.create ()
  in
  Alcotest.(check bool) "restores happened" true (restores > 0);
  Alcotest.(check int) "packet conservation" r.Netstack.Shard.r_crafted
    (r.Netstack.Shard.r_served + r.Netstack.Shard.r_degraded
   + r.Netstack.Shard.r_dropped);
  Alcotest.(check bool) "restarts happened" true (r.Netstack.Shard.r_restarts > 0)

let () =
  let qt = Seed.to_alcotest in
  Alcotest.run "chkpt_incr"
    [
      ( "properties",
        [
          qt prop_incr_restore_byte_identical;
          qt prop_dirty_bounded_by_stamped;
          qt prop_iarr_matches_model;
          qt prop_recovered_iarr_matches_model;
        ] );
      ( "unit",
        [
          Alcotest.test_case "double attach rejected" `Quick
            test_tracker_rejects_double_attach;
          Alcotest.test_case "restore before sync rejected" `Quick
            test_restore_before_sync_rejected;
          Alcotest.test_case "incremental store lifecycle" `Quick
            test_store_incr_lifecycle;
          Alcotest.test_case "record_incr gauge + counters" `Quick
            test_tele_record_incr;
          Alcotest.test_case "supervisor restore path" `Quick test_storm_restore_path;
        ] );
    ]
