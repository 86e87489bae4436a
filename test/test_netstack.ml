(* Tests for the NetBricks/DPDK substrate: packets, pools, NIC, traffic,
   Maglev, filters and the pipeline in all four isolation modes. *)

open Netstack


let make_env ?(pool_capacity = 512) ?(mode = Engine.Untagged) () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:pool_capacity () in
  Engine.create ~clock ~pool ~mode ()

let udp_flow =
  Flow.make ~src_ip:0x0A000001l ~dst_ip:0xC0A80001l ~src_port:1234 ~dst_port:80
    ~protocol:Flow.Udp

let tcp_flow =
  Flow.make ~src_ip:0x0A000002l ~dst_ip:0xC0A80001l ~src_port:4321 ~dst_port:443
    ~protocol:Flow.Tcp

let fresh_packet ?(bytes = 2048) () = Packet.of_bytes ~addr:0x100000 (Bytes.create bytes)

(* A buffer from a pool the test sized large enough. *)
let take pool = Option.get (Mempool.alloc pool)

(* A do-nothing column stage, for chains that need a neighbour. *)
let null = Stage.rewrite ~name:"null" ~access:Stage.Cols (fun _ _ _ _ -> ())

(* ------------------------------------------------------------------ *)
(* Flow                                                                *)
(* ------------------------------------------------------------------ *)

let test_flow_hash_stable () =
  Alcotest.(check int) "hash deterministic" (Flow.hash udp_flow) (Flow.hash udp_flow);
  Alcotest.(check bool) "hash1 <> hash2" true (Flow.hash udp_flow <> Flow.hash2 udp_flow);
  Alcotest.(check bool) "nonneg" true (Flow.hash udp_flow >= 0 && Flow.hash2 udp_flow >= 0)

let test_flow_hash_discriminates () =
  let near = { udp_flow with Flow.src_port = udp_flow.Flow.src_port + 1 } in
  Alcotest.(check bool) "port change changes hash" true (Flow.hash udp_flow <> Flow.hash near)

let test_flow_equal () =
  Alcotest.(check bool) "equal self" true (Flow.equal udp_flow udp_flow);
  Alcotest.(check bool) "udp <> tcp" false (Flow.equal udp_flow tcp_flow)

(* ------------------------------------------------------------------ *)
(* Packet                                                              *)
(* ------------------------------------------------------------------ *)

let test_packet_craft_parse_udp () =
  let p = fresh_packet () in
  Packet.craft p ~flow:udp_flow ~payload_bytes:18 ~ttl:64;
  Alcotest.(check int) "frame length" 60 p.Packet.len;
  Alcotest.(check int) "ethertype" 0x0800 (Packet.ethertype p);
  Alcotest.(check bool) "5-tuple round-trips" true (Flow.equal udp_flow (Packet.flow_of p));
  Alcotest.(check int) "ttl" 64 (Packet.ttl p);
  Alcotest.(check bool) "checksum valid" true (Packet.ipv4_checksum_ok p);
  Alcotest.(check int) "payload length" 18 (Packet.payload_length p);
  Alcotest.(check int) "payload pattern" 5 (Packet.read_payload_byte p 5)

let test_packet_craft_parse_tcp () =
  let p = fresh_packet () in
  Packet.craft p ~flow:tcp_flow ~payload_bytes:100 ~ttl:32;
  Alcotest.(check bool) "tcp 5-tuple round-trips" true (Flow.equal tcp_flow (Packet.flow_of p));
  Alcotest.(check bool) "checksum valid" true (Packet.ipv4_checksum_ok p);
  Alcotest.(check int) "payload length" 100 (Packet.payload_length p)

let test_packet_ttl_update_keeps_checksum () =
  let p = fresh_packet () in
  Packet.craft p ~flow:udp_flow ~payload_bytes:18 ~ttl:64;
  Packet.set_ttl p 63;
  Alcotest.(check int) "ttl updated" 63 (Packet.ttl p);
  Alcotest.(check bool) "incremental checksum still valid" true (Packet.ipv4_checksum_ok p)

let test_packet_dst_rewrite_keeps_checksum () =
  let p = fresh_packet () in
  Packet.craft p ~flow:udp_flow ~payload_bytes:18 ~ttl:64;
  Packet.set_dst_ip_int p 0x0A010005;
  Alcotest.(check int) "dst rewritten" 0x0A010005 (Packet.dst_ip_int p);
  Alcotest.(check bool) "checksum fixed" true (Packet.ipv4_checksum_ok p)

let test_packet_truncated_raises () =
  let p = fresh_packet () in
  Packet.craft p ~flow:udp_flow ~payload_bytes:18 ~ttl:64;
  p.Packet.len <- 20;
  (match Packet.flow_of p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "truncated packet must raise");
  (match Packet.read_payload_byte p 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "payload read past len must raise")

let test_packet_buffer_too_small () =
  let p = fresh_packet ~bytes:32 () in
  Alcotest.check_raises "too small" (Invalid_argument "Packet.craft: buffer too small")
    (fun () -> Packet.craft p ~flow:udp_flow ~payload_bytes:100 ~ttl:64)

let prop_packet_checksum_roundtrip =
  QCheck.Test.make ~name:"crafted packets always have valid checksums" ~count:200
    QCheck.(triple (int_range 0 1000) (int_range 0 255) (int_range 0 65535))
    (fun (payload, ttl, port) ->
      let p = fresh_packet () in
      let flow = { udp_flow with Flow.src_port = port } in
      Packet.craft p ~flow ~payload_bytes:payload ~ttl;
      Packet.ipv4_checksum_ok p
      && Packet.ttl p = ttl
      && Flow.equal flow (Packet.flow_of p))

(* [ipv4_checksum_ok] recomputes the full RFC 1071 header sum and
   compares it to the stored field, so it holding after a mutation is
   exactly "RFC 1624 incremental update == full recompute". *)
let arb_crafted_packet =
  QCheck.(
    quad (int_range 0 500) (int_range 1 255) (pair int32 (int_range 0 65535)) bool)

let craft_of_quad (payload_bytes, ttl, (src_ip, src_port), is_tcp) =
  let p = fresh_packet () in
  let protocol = if is_tcp then Flow.Tcp else Flow.Udp in
  let flow =
    Flow.make ~src_ip ~dst_ip:0xC0A80001l ~src_port ~dst_port:80 ~protocol
  in
  Packet.craft p ~flow ~payload_bytes ~ttl;
  p

let prop_incremental_checksum_ttl =
  QCheck.Test.make ~name:"RFC1624 ttl decrement == RFC1071 recompute" ~count:300
    arb_crafted_packet (fun quad ->
      let p = craft_of_quad quad in
      let _, ttl, _, _ = quad in
      (* Walk the ttl all the way down, checking the incrementally
         patched checksum against a full recompute at every hop. *)
      let ok = ref (Packet.ipv4_checksum_ok p) in
      for next = ttl - 1 downto Stdlib.max 0 (ttl - 16) do
        Packet.set_ttl p next;
        ok := !ok && Packet.ipv4_checksum_ok p && Packet.ttl p = next
      done;
      !ok)

let prop_incremental_checksum_dst =
  QCheck.Test.make ~name:"RFC1624 dst rewrite == RFC1071 recompute" ~count:300
    QCheck.(pair arb_crafted_packet int32)
    (fun (quad, new_ip) ->
      (* Maglev's rewrite: the destination address, both of its words
         under the IPv4 header checksum. *)
      let p = craft_of_quad quad in
      let new_ip = Int32.to_int new_ip land 0xFFFFFFFF in
      Packet.set_dst_ip_int p new_ip;
      Packet.ipv4_checksum_ok p && Packet.dst_ip_int p = new_ip)

let prop_incremental_checksum_chain =
  QCheck.Test.make ~name:"chained incremental updates stay exact" ~count:200
    QCheck.(
      pair arb_crafted_packet
        (list_of_size Gen.(int_range 1 12) (pair (int_range 0 2) (int_range 0 65535))))
    (fun (quad, ops) ->
      let p = craft_of_quad quad in
      List.for_all
        (fun (op, v) ->
          (match op with
          | 0 -> Packet.set_ttl p (v land 0xFF)
          | 1 -> Packet.set_dst_ip_int p (v lsl 16)
          | _ -> Packet.set_dst_ip_int p (v * 31 land 0xFFFFFFFF));
          Packet.ipv4_checksum_ok p)
        ops)

(* ------------------------------------------------------------------ *)
(* Mempool                                                             *)
(* ------------------------------------------------------------------ *)

let test_mempool_alloc_free () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:4 () in
  Alcotest.(check int) "all available" 4 (Mempool.available pool);
  let p1 = take pool in
  let p2 = take pool in
  Alcotest.(check int) "two in use" 2 (Mempool.in_use pool);
  Alcotest.(check bool) "distinct addresses" true (p1.Packet.addr <> p2.Packet.addr);
  Alcotest.(check bool) "allocated" true (Mempool.is_allocated pool p1);
  Mempool.free pool p1;
  Alcotest.(check bool) "no longer allocated" false (Mempool.is_allocated pool p1);
  Mempool.free pool p2;
  Alcotest.(check int) "all back" 4 (Mempool.available pool)

let test_mempool_exhaustion () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:2 () in
  let a = Mempool.alloc pool and b = Mempool.alloc pool in
  Alcotest.(check bool) "two granted" true (a <> None && b <> None);
  Alcotest.(check bool) "third refused" true (Mempool.alloc pool = None)

let test_mempool_double_free () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:2 () in
  let p = take pool in
  Mempool.free pool p;
  Alcotest.check_raises "double free" (Invalid_argument "Mempool.free: double free")
    (fun () -> Mempool.free pool p)

let test_mempool_foreign_packet () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:2 () in
  let foreign = fresh_packet () in
  Alcotest.check_raises "foreign" (Invalid_argument "Mempool.free: foreign packet")
    (fun () -> Mempool.free pool foreign);
  Alcotest.(check bool) "foreign not allocated here" false (Mempool.is_allocated pool foreign)

let test_mempool_lifo_reuse () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:8 () in
  let p = take pool in
  let addr = p.Packet.addr in
  Mempool.free pool p;
  let q = take pool in
  Alcotest.(check bool) "LIFO returns the hot buffer" true (addr = q.Packet.addr)

let test_mempool_mark_reclaim () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:8 () in
  let a = take pool in
  let b = take pool in
  let mark = Mempool.mark pool in
  let c = take pool in
  let d = take pool in
  Alcotest.(check int) "two reclaimed" 2 (Mempool.reclaim_since pool mark);
  Alcotest.(check bool) "pre-mark survives" true
    (Mempool.is_allocated pool a && Mempool.is_allocated pool b);
  Alcotest.(check bool) "post-mark freed" false
    (Mempool.is_allocated pool c || Mempool.is_allocated pool d);
  Alcotest.(check int) "idempotent" 0 (Mempool.reclaim_since pool mark);
  (* Serials are monotonic, so the watermark sweeps anything allocated
     at-or-after it — including reused slots. *)
  let e = take pool in
  Alcotest.(check int) "reused slot swept by old mark" 1 (Mempool.reclaim_since pool mark);
  Alcotest.(check bool) "e freed" false (Mempool.is_allocated pool e)

let test_mempool_assert_no_leaks () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:4 () in
  Mempool.assert_no_leaks pool;
  let p = take pool in
  (match Mempool.assert_no_leaks pool with
  | () -> Alcotest.fail "leak not detected"
  | exception Failure msg ->
    Alcotest.(check string) "leak message"
      "Mempool.assert_no_leaks: 1 buffer(s) of 4 still allocated" msg);
  Mempool.free pool p;
  Mempool.assert_no_leaks pool

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)
(* ------------------------------------------------------------------ *)

let test_traffic_single_flow () =
  let rng = Cycles.Rng.create 1L in
  let t = Traffic.create ~rng (Traffic.Single_flow udp_flow) in
  for _ = 1 to 10 do
    Alcotest.(check bool) "always same flow" true (Flow.equal udp_flow (Traffic.next_flow t))
  done;
  Alcotest.(check int) "population" 1 (Traffic.population t)

let test_traffic_uniform_population () =
  let rng = Cycles.Rng.create 2L in
  let t = Traffic.create ~rng (Traffic.Uniform { flows = 16 }) in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    Hashtbl.replace seen (Traffic.next_flow t) ()
  done;
  Alcotest.(check int) "all 16 flows appear" 16 (Hashtbl.length seen)

let test_traffic_zipf_skew () =
  let rng = Cycles.Rng.create 3L in
  let t = Traffic.create ~rng (Traffic.Zipf { flows = 100; exponent = 1.2 }) in
  let top = Traffic.flow_of_index t 0 in
  let hits = ref 0 in
  let n = 5000 in
  for _ = 1 to n do
    if Flow.equal (Traffic.next_flow t) top then incr hits
  done;
  (* Rank-1 share under zipf(1.2, 100) is ~28%; uniform would be 1%. *)
  Alcotest.(check bool)
    (Printf.sprintf "rank-1 flow is hot (%d/%d)" !hits n)
    true
    (!hits > n / 10)

let test_traffic_validation () =
  let rng = Cycles.Rng.create 4L in
  Alcotest.check_raises "zero flows" (Invalid_argument "Traffic: flows must be positive")
    (fun () -> ignore (Traffic.create ~rng (Traffic.Uniform { flows = 0 })));
  Alcotest.check_raises "bad exponent" (Invalid_argument "Traffic: exponent must be positive")
    (fun () -> ignore (Traffic.create ~rng (Traffic.Zipf { flows = 5; exponent = 0. })))

(* ------------------------------------------------------------------ *)
(* NIC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_nic_rx_tx_cycle () =
  let engine = make_env () in
  let rng = Cycles.Rng.create 5L in
  let traffic = Traffic.create ~rng (Traffic.Uniform { flows = 8 }) in
  let nic = Nic.create ~engine ~traffic () in
  let batch = Nic.rx_batch nic 32 in
  Alcotest.(check int) "full batch" 32 (Batch.length batch);
  Alcotest.(check int) "pool accounting" 32 (Mempool.in_use (Engine.pool engine));
  Batch.iter
    (fun p -> Alcotest.(check bool) "crafted valid" true (Packet.ipv4_checksum_ok p))
    batch;
  let sent = Nic.tx_batch nic batch in
  Alcotest.(check int) "all transmitted" 32 sent;
  Alcotest.(check int) "buffers returned" 0 (Mempool.in_use (Engine.pool engine));
  Alcotest.(check int) "rx counted" 32 (Nic.rx_packets nic);
  Alcotest.(check int) "tx counted" 32 (Nic.tx_packets nic)

let test_nic_rx_short_on_exhaustion () =
  let engine = make_env ~pool_capacity:10 () in
  let rng = Cycles.Rng.create 6L in
  let traffic = Traffic.create ~rng (Traffic.Uniform { flows = 2 }) in
  let nic = Nic.create ~engine ~traffic () in
  let batch = Nic.rx_batch nic 32 in
  Alcotest.(check int) "short batch" 10 (Batch.length batch);
  ignore (Nic.tx_batch nic batch)

(* ------------------------------------------------------------------ *)
(* Maglev                                                              *)
(* ------------------------------------------------------------------ *)

let backends = [| "be-0"; "be-1"; "be-2"; "be-3"; "be-4" |]

let make_maglev ?(table_size = 65537) () =
  let clock = Cycles.Clock.create () in
  Maglev.create ~clock ~backends ~table_size ()

let test_maglev_table_fully_populated () =
  let mg = make_maglev () in
  for i = 0 to Maglev.table_size mg - 1 do
    let b = Maglev.table_entry mg i in
    if b < 0 || b >= Array.length backends then
      Alcotest.failf "entry %d unpopulated or out of range: %d" i b
  done

let test_maglev_balance () =
  let mg = make_maglev () in
  (* The Maglev paper's guarantee: near-perfect balance; imbalance is
     O(backends / table_size). *)
  Alcotest.(check bool)
    (Printf.sprintf "imbalance %.4f < 0.02" (Maglev.imbalance mg))
    true
    (Maglev.imbalance mg < 0.02)

let test_maglev_lookup_deterministic () =
  let mg = make_maglev () in
  let b1 = Maglev.lookup_no_track mg udp_flow in
  let b2 = Maglev.lookup_no_track mg udp_flow in
  Alcotest.(check int) "same flow same backend" b1 b2

let test_maglev_connection_affinity () =
  let mg = make_maglev () in
  let b = Maglev.lookup mg udp_flow in
  Alcotest.(check int) "tracked" 1 (Maglev.connection_count mg);
  (* Remove the chosen backend; the affinity entry keeps steering the
     established connection to it. *)
  let survivors = Array.of_list (List.filteri (fun i _ -> i <> b) (Array.to_list backends)) in
  ignore (Maglev.set_backends mg survivors);
  Alcotest.(check int) "affinity preserved across rebuild" b (Maglev.lookup mg udp_flow)

let test_maglev_minimal_disruption () =
  let mg = make_maglev () in
  let m = Maglev.table_size mg in
  (* Removing 1 of 5 backends should move roughly its own 20% share,
     far from full reshuffling. *)
  let changed = Maglev.set_backends mg [| "be-0"; "be-1"; "be-2"; "be-3" |] in
  let fraction = float_of_int changed /. float_of_int m in
  Alcotest.(check bool)
    (Printf.sprintf "disruption %.3f in (0.15, 0.45)" fraction)
    true
    (fraction > 0.15 && fraction < 0.45)

let test_maglev_validation () =
  let clock = Cycles.Clock.create () in
  Alcotest.check_raises "no backends" (Invalid_argument "Maglev.create: no backends")
    (fun () -> ignore (Maglev.create ~clock ~backends:[||] ()));
  Alcotest.check_raises "tiny table" (Invalid_argument "Maglev.create: table too small")
    (fun () -> ignore (Maglev.create ~clock ~backends ~table_size:1 ()))

let prop_maglev_spread =
  QCheck.Test.make ~name:"maglev spreads distinct flows over several backends" ~count:20
    QCheck.(int_range 10 2000)
    (fun seed ->
      let clock = Cycles.Clock.create () in
      let mg = Maglev.create ~clock ~backends ~table_size:4099 () in
      let rng = Cycles.Rng.create (Int64.of_int seed) in
      let traffic = Traffic.create ~rng (Traffic.Uniform { flows = 64 }) in
      let seen = Hashtbl.create 8 in
      for i = 0 to 63 do
        Hashtbl.replace seen (Maglev.lookup_no_track mg (Traffic.flow_of_index traffic i)) ()
      done;
      Hashtbl.length seen >= 3)

(* ------------------------------------------------------------------ *)
(* Filters & pipeline                                                  *)
(* ------------------------------------------------------------------ *)

let make_nic engine =
  let rng = Cycles.Rng.create 7L in
  Nic.create ~engine ~traffic:(Traffic.create ~rng (Traffic.Uniform { flows = 16 })) ()

let make_loaded_batch engine n =
  let nic = make_nic engine in
  (nic, Nic.rx_batch nic n)

let test_filter_ttl_drops_expired () =
  let engine = make_env () in
  let _nic, batch = make_loaded_batch engine 8 in
  (* Force two packets to TTL 1: they must be dropped and freed. A
     byte-level mutation behind the batch's back, so the header plane
     seeded at rx must be dropped like any byte rewriter would. *)
  Packet.set_ttl (Batch.get batch 0) 1;
  Batch.invalidate_hdr batch 0;
  Packet.set_ttl (Batch.get batch 3) 1;
  Batch.invalidate_hdr batch 3;
  let before = Mempool.in_use (Engine.pool engine) in
  let batch = Stage.process Filters.ttl_decrement engine batch in
  Alcotest.(check int) "two dropped" 6 (Batch.length batch);
  Alcotest.(check int) "their buffers freed" (before - 2) (Mempool.in_use (Engine.pool engine));
  Batch.iter
    (fun p -> Alcotest.(check int) "survivors decremented" 63 (Packet.ttl p))
    batch

let test_filter_checksum_drops_corrupt () =
  let engine = make_env () in
  let _nic, batch = make_loaded_batch engine 4 in
  (* Corrupt one header byte without fixing the checksum. *)
  let victim = Batch.get batch 2 in
  Slab.set victim.Packet.buf (Packet.eth_header_bytes + 8) '\001';
  let batch = Stage.process Filters.checksum_verify engine batch in
  Alcotest.(check int) "corrupt packet dropped" 3 (Batch.length batch)

let test_filter_maglev_rewrites () =
  let engine = make_env () in
  let clock = Engine.clock engine in
  let mg = Maglev.create ~clock ~backends () in
  let _nic, batch = make_loaded_batch engine 8 in
  let batch = Stage.process (Filters.maglev mg) engine batch in
  Batch.iter
    (fun p ->
      let dst = Packet.dst_ip_int p in
      Alcotest.(check int) "steered into 10.1.0.0/16" 0x0A010000
        (dst land 0xFFFF0000);
      Alcotest.(check bool) "checksum still ok" true (Packet.ipv4_checksum_ok p))
    batch

let test_filter_firewall_verdicts () =
  let engine = make_env () in
  let _nic, batch = make_loaded_batch engine 8 in
  let block_src = (Batch.get batch 0 |> Packet.flow_of).Flow.src_ip in
  let n_blocked =
    Batch.fold
      (fun acc p -> if Int32.equal (Packet.flow_of p).Flow.src_ip block_src then acc + 1 else acc)
      0 batch
  in
  let fw = Filters.firewall ~name:"fw" (fun f -> not (Int32.equal f.Flow.src_ip block_src)) in
  let batch = Stage.process fw engine batch in
  Alcotest.(check int) "blocked flows removed" (8 - n_blocked) (Batch.length batch)

let test_filter_payload_scan_charges () =
  let engine = make_env () in
  let clock = Engine.clock engine in
  let _nic, batch = make_loaded_batch engine 4 in
  let _, cycles =
    Cycles.Clock.measure clock (fun () ->
        ignore (Stage.process Filters.payload_scan engine batch))
  in
  Alcotest.(check bool) "payload work costs cycles" true (cycles > 0L)

let run_simple_pipeline mode engine =
  let _nic, batch = make_loaded_batch engine 16 in
  let pipe = Pipeline.create ~engine ~mode [ null; Filters.ttl_decrement; null ] in
  match Pipeline.run pipe batch with
  | Ok out -> (pipe, out)
  | Error e -> Alcotest.failf "pipeline failed: %s" (Sfi.Sfi_error.to_string e)

let test_pipeline_direct () =
  let engine = make_env () in
  let _pipe, out = run_simple_pipeline Pipeline.Direct engine in
  Alcotest.(check int) "packets preserved" 16 (Batch.length out);
  Batch.iter (fun p -> Alcotest.(check int) "ttl decremented once" 63 (Packet.ttl p)) out

let test_pipeline_isolated_equivalent () =
  let engine = make_env () in
  let mgr = Sfi.Manager.create () in
  let _pipe, out = run_simple_pipeline (Pipeline.Isolated mgr) engine in
  Alcotest.(check int) "packets preserved" 16 (Batch.length out);
  Batch.iter (fun p -> Alcotest.(check int) "ttl decremented once" 63 (Packet.ttl p)) out

let test_pipeline_copying_equivalent () =
  let engine = make_env ~pool_capacity:128 () in
  let _pipe, out = run_simple_pipeline Pipeline.Copying engine in
  Alcotest.(check int) "packets preserved" 16 (Batch.length out);
  Batch.iter
    (fun p ->
      Alcotest.(check int) "ttl decremented once" 63 (Packet.ttl p);
      Alcotest.(check bool) "copies carry valid checksums" true (Packet.ipv4_checksum_ok p))
    out

let test_pipeline_tagged_counts_checks () =
  let engine = make_env () in
  let _pipe, out = run_simple_pipeline Pipeline.Tagged engine in
  Alcotest.(check int) "packets preserved" 16 (Batch.length out);
  Alcotest.(check bool) "tag validations happened" true (Engine.tag_checks engine > 0);
  Alcotest.(check bool) "base engine stays untagged" true (Engine.mode engine = Engine.Untagged)

let test_pipeline_isolation_contains_fault () =
  let engine = make_env () in
  let mgr = Sfi.Manager.create () in
  let pipe =
    Pipeline.create ~engine ~mode:(Pipeline.Isolated mgr)
      [ null; Filters.fault_injector ~panic_after:2; null ]
  in
  let _nic, b1 = make_loaded_batch engine 8 in
  (match Pipeline.run pipe b1 with
  | Ok out -> Alcotest.(check int) "first batch fine" 8 (Batch.length out)
  | Error e -> Alcotest.failf "unexpected: %s" (Sfi.Sfi_error.to_string e));
  (* Buffers of batch 1 are still held (stage returned them to us). *)
  let _nic2, b2 = make_loaded_batch engine 8 in
  (match Pipeline.run pipe b2 with
  | Error (Sfi.Sfi_error.Domain_failed _) -> ()
  | Ok _ -> Alcotest.fail "second batch should crash the injector"
  | Error e -> Alcotest.failf "wrong error: %s" (Sfi.Sfi_error.to_string e));
  Alcotest.(check (option int)) "stage 1 failed" (Some 1) (Pipeline.failed_stage pipe);
  (* The crashed batch's buffers were reclaimed: only batch 1's 8 are out. *)
  Alcotest.(check int) "no buffer leak" 8 (Mempool.in_use (Engine.pool engine));
  (* Third batch is rejected while the stage is down... *)
  let _nic3, b3 = make_loaded_batch engine 8 in
  (match Pipeline.run pipe b3 with
  | Error Sfi.Sfi_error.Domain_unavailable -> ()
  | _ -> Alcotest.fail "stage down: expected Domain_unavailable");
  (* ... recovery restores service transparently. *)
  (match Pipeline.recover_stage pipe 1 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "recovery failed: %s" msg);
  Alcotest.(check (option int)) "no failed stage" None (Pipeline.failed_stage pipe);
  let _nic4, b4 = make_loaded_batch engine 8 in
  (match Pipeline.run pipe b4 with
  | Error (Sfi.Sfi_error.Domain_failed _) ->
    (* The injector crash-loops (panic_after already exceeded): that is
       its documented behaviour. Service control works; the filter is
       simply still buggy. *)
    ()
  | Ok _ -> Alcotest.fail "injector should still be buggy"
  | Error e -> Alcotest.failf "wrong error: %s" (Sfi.Sfi_error.to_string e));
  (* A fault campaign: one-shot faults on a fixed schedule (two of them
     back to back), each followed by recovery. Each fault costs exactly
     its in-flight batch, every fault is recovered, and nothing leaks. *)
  let engine = make_env () in
  let trigger = ref false in
  let pipe =
    Pipeline.create ~engine ~mode:(Pipeline.Isolated (Sfi.Manager.create ()))
      [ Filters.ttl_decrement; Filters.triggered_fault ~trigger; null ]
  in
  let nic = make_nic engine in
  let schedule = [ 2; 3; 7; 11 ] in
  let served = ref 0 and faults = ref 0 and recoveries = ref 0 in
  for round = 1 to 12 do
    trigger := List.mem round schedule;
    match Pipeline.run pipe (Nic.rx_batch nic 8) with
    | Ok out ->
      Alcotest.(check int) "a served batch loses nothing" 8 (Nic.tx_batch nic out);
      incr served
    | Error (Sfi.Sfi_error.Domain_failed _) ->
      incr faults;
      Alcotest.(check int) "the failed batch's buffers are back" 0
        (Mempool.in_use (Engine.pool engine));
      (match Pipeline.recover_stage pipe 1 with
      | Ok () -> incr recoveries
      | Error msg -> Alcotest.failf "recovery failed: %s" msg)
    | Error e -> Alcotest.failf "wrong error: %s" (Sfi.Sfi_error.to_string e)
  done;
  Alcotest.(check int) "one fault per scheduled round" (List.length schedule) !faults;
  Alcotest.(check int) "every fault recovered" !faults !recoveries;
  Alcotest.(check int) "only the faulted batches lost" (12 - !faults) !served;
  Mempool.assert_no_leaks (Engine.pool engine)

let test_pipeline_panic_reclaims_stage_allocations () =
  (* A stage that allocates scratch buffers and then panics must not
     leak them: the pipeline's panic path reclaims everything allocated
     after batch entry (watermark), plus the in-flight batch itself. *)
  let engine = make_env () in
  let mgr = Sfi.Manager.create () in
  let greedy =
    Stage.opaque ~name:"greedy" (fun eng _b ->
        for _ = 1 to 3 do
          ignore (take (Engine.pool eng))
        done;
        Sfi.Panic.panic "greedy: crashed holding buffers")
  in
  let pipe = Pipeline.create ~engine ~mode:(Pipeline.Isolated mgr) [ null; greedy ] in
  let _nic, b = make_loaded_batch engine 8 in
  Alcotest.(check int) "batch in flight" 8 (Mempool.in_use (Engine.pool engine));
  (match Pipeline.run pipe b with
  | Error (Sfi.Sfi_error.Domain_failed _) -> ()
  | Ok _ -> Alcotest.fail "greedy stage should have panicked"
  | Error e -> Alcotest.failf "wrong error: %s" (Sfi.Sfi_error.to_string e));
  Alcotest.(check int) "batch and scratch buffers all reclaimed" 0
    (Mempool.in_use (Engine.pool engine));
  Mempool.assert_no_leaks (Engine.pool engine)

let test_pipeline_direct_panic_propagates () =
  let engine = make_env () in
  let pipe =
    Pipeline.create ~engine ~mode:Pipeline.Direct
      [ Filters.fault_injector ~panic_after:1 ]
  in
  let _nic, b = make_loaded_batch engine 4 in
  match Pipeline.run pipe b with
  | exception Sfi.Panic.Panic _ -> ()
  | _ -> Alcotest.fail "direct mode has no containment: panic must propagate"

let test_pipeline_empty_stage_list_rejected () =
  let engine = make_env () in
  Alcotest.check_raises "empty" (Invalid_argument "Pipeline.create: no stages") (fun () ->
      ignore (Pipeline.create ~engine ~mode:Pipeline.Direct []))

let test_pipeline_stats () =
  let engine = make_env () in
  let mgr = Sfi.Manager.create () in
  let pipe =
    Pipeline.create ~engine ~mode:(Pipeline.Isolated mgr)
      [ Filters.fault_injector ~panic_after:3 ]
  in
  let nic, _ = make_loaded_batch engine 1 in
  let feed () =
    let b = Nic.rx_batch nic 4 in
    match Pipeline.run pipe b with
    | Ok out -> ignore (Nic.tx_batch nic out)
    | Error _ -> ()
  in
  feed ();
  feed ();
  feed ();
  Alcotest.(check int) "two ok" 2 (Pipeline.batches_ok pipe);
  Alcotest.(check int) "one failed" 1 (Pipeline.batches_failed pipe)

let test_pipeline_isolated_overhead_band () =
  (* A hot 5-stage null pipeline: isolation should cost on the order of
     100 cycles per boundary (the paper's 90–122), certainly not 10× that. *)
  let run mode =
    let engine = make_env ~pool_capacity:1024 () in
    let rng = Cycles.Rng.create 42L in
    let traffic = Traffic.create ~rng (Traffic.Uniform { flows = 16 }) in
    let nic = Nic.create ~engine ~traffic () in
    let pipe = Pipeline.create ~engine ~mode (Filters.null_chain 5) in
    let clock = Engine.clock engine in
    let total = ref 0L in
    for _ = 1 to 30 do
      let b = Nic.rx_batch nic 8 in
      let result, cycles = Cycles.Clock.measure clock (fun () -> Pipeline.run pipe b) in
      (match result with
      | Ok out -> ignore (Nic.tx_batch nic out)
      | Error e -> Alcotest.failf "failed: %s" (Sfi.Sfi_error.to_string e));
      total := Int64.add !total cycles
    done;
    Int64.to_float !total /. 30.
  in
  let direct = run Pipeline.Direct in
  (* The isolated run must charge the same clock as its engine; rebuild
     the environment around a shared clock. *)
  let isolated =
    let clock = Cycles.Clock.create () in
    let pool = Mempool.create ~clock ~capacity:1024 () in
    let engine = Engine.create ~clock ~pool () in
    let rng = Cycles.Rng.create 42L in
    let traffic = Traffic.create ~rng (Traffic.Uniform { flows = 16 }) in
    let nic = Nic.create ~engine ~traffic () in
    let mgr = Sfi.Manager.create ~clock () in
    let pipe = Pipeline.create ~engine ~mode:(Pipeline.Isolated mgr) (Filters.null_chain 5) in
    let total = ref 0L in
    for _ = 1 to 30 do
      let b = Nic.rx_batch nic 8 in
      let result, cycles = Cycles.Clock.measure clock (fun () -> Pipeline.run pipe b) in
      (match result with
      | Ok out -> ignore (Nic.tx_batch nic out)
      | Error e -> Alcotest.failf "failed: %s" (Sfi.Sfi_error.to_string e));
      total := Int64.add !total cycles
    done;
    Int64.to_float !total /. 30.
  in
  let overhead_per_call = (isolated -. direct) /. 5. in
  Alcotest.(check bool)
    (Printf.sprintf "overhead/call = %.1f cycles, expect [40, 300]" overhead_per_call)
    true
    (overhead_per_call >= 40. && overhead_per_call <= 300.)

(* ------------------------------------------------------------------ *)
(* GRE encapsulation                                                   *)
(* ------------------------------------------------------------------ *)

let test_gre_encap_decap_roundtrip () =
  let p = fresh_packet () in
  Packet.craft p ~flow:udp_flow ~payload_bytes:18 ~ttl:64;
  let original = Packet.to_string p in
  let inner_len = p.Packet.len in
  Packet.encap_gre p ~outer_src:0x0A0000FE ~outer_dst:0x0A010003;
  Alcotest.(check int) "grew by overhead" (inner_len + Packet.gre_overhead_bytes) p.Packet.len;
  Alcotest.(check bool) "recognised as GRE" true (Packet.is_gre p);
  Alcotest.(check bool) "outer checksum valid" true (Packet.ipv4_checksum_ok p);
  Alcotest.(check int) "outer dst is backend" 0x0A010003 (Packet.dst_ip_int p);
  Packet.decap_gre p;
  Alcotest.(check int) "length restored" inner_len p.Packet.len;
  Alcotest.(check bool) "inner bytes identical" true
    (String.equal original (Packet.to_string p));
  Alcotest.(check bool) "inner checksum still valid" true (Packet.ipv4_checksum_ok p)

let test_gre_decap_rejects_plain () =
  let p = fresh_packet () in
  Packet.craft p ~flow:udp_flow ~payload_bytes:18 ~ttl:64;
  Alcotest.(check bool) "plain packet is not GRE" false (Packet.is_gre p);
  Alcotest.check_raises "decap of plain" (Invalid_argument "Packet.decap_gre: not a GRE packet")
    (fun () -> Packet.decap_gre p)

let test_gre_encap_buffer_limit () =
  let p = fresh_packet ~bytes:80 () in
  Packet.craft p ~flow:udp_flow ~payload_bytes:18 ~ttl:64;
  Alcotest.check_raises "no room" (Invalid_argument "Packet.encap_gre: buffer too small")
    (fun () -> Packet.encap_gre p ~outer_src:1 ~outer_dst:2)

let test_maglev_gre_pipeline () =
  (* LB encapsulates; the backend decapsulates; the original 5-tuple
     survives the tunnel. *)
  let engine = make_env () in
  let clock = Engine.clock engine in
  let mg = Maglev.create ~clock ~backends () in
  let vip = 0xC0A80001 in
  let _nic, batch = make_loaded_batch engine 8 in
  let flows_before = Batch.fold (fun acc p -> Packet.flow_of p :: acc) [] batch in
  let batch = Stage.process (Filters.maglev_gre mg ~vip) engine batch in
  Alcotest.(check int) "all encapsulated" 8 (Batch.length batch);
  Batch.iter
    (fun p ->
      Alcotest.(check bool) "tunnelled" true (Packet.is_gre p);
      Alcotest.(check int) "from the VIP" vip (Packet.src_ip_int p))
    batch;
  Batch.iter Packet.decap_gre batch;
  let flows_after = Batch.fold (fun acc p -> Packet.flow_of p :: acc) [] batch in
  Alcotest.(check bool) "inner flows preserved" true
    (List.for_all2 Flow.equal flows_before flows_after)

let prop_gre_roundtrip =
  QCheck.Test.make ~name:"gre encap/decap is the identity on the inner packet" ~count:200
    QCheck.(triple (int_range 0 500) (int_range 1 255) (int_range 0 65535))
    (fun (payload, ttl, port) ->
      let p = fresh_packet () in
      let flow = { udp_flow with Flow.src_port = port } in
      Packet.craft p ~flow ~payload_bytes:payload ~ttl;
      let before = Packet.to_string p in
      Packet.encap_gre p ~outer_src:1 ~outer_dst:2;
      Packet.decap_gre p;
      String.equal before (Packet.to_string p))

(* ------------------------------------------------------------------ *)
(* Heavy hitters (Space-Saving)                                        *)
(* ------------------------------------------------------------------ *)

let flow_n i =
  Flow.make ~src_ip:(Int32.of_int (0x0A000000 lor i)) ~dst_ip:0xC0A80001l ~src_port:(1000 + i)
    ~dst_port:80 ~protocol:Flow.Udp

(* E13 restores the sketch from a checkpoint: the copy must equal the
   original and own its counters, so later observations of either side
   do not reach the other. *)
let test_hh_checkpoint_copies_counters () =
  let hh = Heavy_hitters.create ~capacity:2 in
  List.iter (fun i -> Heavy_hitters.observe hh (flow_n i)) [ 0; 0; 1; 2 ];
  let copy, _ = Chkpt.Checkpointable.checkpoint Heavy_hitters.desc hh in
  Alcotest.(check bool) "copy equals the original" true (Heavy_hitters.equal hh copy);
  Heavy_hitters.observe hh (flow_n 0);
  Alcotest.(check bool) "the copy did not see the new observation" false
    (Heavy_hitters.equal hh copy);
  Heavy_hitters.observe copy (flow_n 0);
  Alcotest.(check bool) "the same observation makes them equal again" true
    (Heavy_hitters.equal hh copy)

(* ------------------------------------------------------------------ *)
(* Full-NF integration                                                 *)
(* ------------------------------------------------------------------ *)

let test_full_nf_chain_isolated () =
  (* firewall -> TTL decrement -> checksum verify -> maglev+GRE, each
     in its own protection domain; end-to-end invariants across the
     whole chain. *)
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:1024 () in
  let engine = Engine.create ~clock ~pool () in
  let rng = Cycles.Rng.create 77L in
  let traffic = Traffic.create ~rng (Traffic.Zipf { flows = 64; exponent = 1.1 }) in
  let nic = Nic.create ~engine ~traffic () in
  let mgr = Sfi.Manager.create ~clock () in
  let mg = Maglev.create ~clock ~backends:[| "a"; "b"; "c" |] ~table_size:4099 () in
  let vip = 0xC0A80001 in
  (* Per-stage accounting is under test: keep one domain per stage. *)
  let pipe =
    Pipeline.create ~engine ~mode:(Pipeline.Isolated mgr)
      (List.map Stage.barrier
         [
           Filters.firewall ~name:"fw" (fun f -> f.Flow.dst_port = 80);
           Filters.ttl_decrement;
           Filters.checksum_verify;
           Filters.maglev_gre mg ~vip;
         ])
  in
  let forwarded = ref 0 in
  for _ = 1 to 50 do
    let b = Nic.rx_batch nic 16 in
    match Pipeline.run pipe b with
    | Ok out ->
      Batch.iter
        (fun p ->
          Alcotest.(check bool) "tunnelled" true (Packet.is_gre p);
          Alcotest.(check int) "outer src is the VIP" vip (Packet.src_ip_int p);
          Packet.decap_gre p;
          Alcotest.(check int) "inner ttl decremented" 63 (Packet.ttl p);
          Alcotest.(check bool) "inner checksum valid" true (Packet.ipv4_checksum_ok p))
        out;
      forwarded := !forwarded + Nic.tx_batch nic out
    | Error e -> Alcotest.failf "pipeline failed: %s" (Sfi.Sfi_error.to_string e)
  done;
  Alcotest.(check int) "all port-80 traffic forwarded" 800 !forwarded;
  Alcotest.(check int) "no buffer leaks" 0 (Mempool.in_use pool);
  (* Per-stage accounting is coherent. *)
  let reports = Pipeline.stage_reports pipe in
  Alcotest.(check int) "four stages" 4 (List.length reports);
  List.iter
    (fun (r : Pipeline.stage_report) ->
      Alcotest.(check int) "entered once per batch (+1 install)" 51 r.Pipeline.sr_entries;
      Alcotest.(check bool) "consumed cycles" true (r.Pipeline.sr_cycles > 0L);
      Alcotest.(check int) "no panics" 0 r.Pipeline.sr_panics)
    reports;
  (* The maglev stage (GRE encap, table walks) is the most expensive. *)
  match List.rev reports with
  | maglev_r :: _ ->
    List.iter
      (fun (r : Pipeline.stage_report) ->
        Alcotest.(check bool)
          (Printf.sprintf "maglev >= %s" r.Pipeline.sr_name)
          true
          (maglev_r.Pipeline.sr_cycles >= r.Pipeline.sr_cycles))
      reports
  | [] -> Alcotest.fail "reports"

let () =
  let qt = Seed.to_alcotest in
  Alcotest.run "netstack"
    [
      ( "flow",
        [
          Alcotest.test_case "hash stable" `Quick test_flow_hash_stable;
          Alcotest.test_case "hash discriminates" `Quick test_flow_hash_discriminates;
          Alcotest.test_case "equal" `Quick test_flow_equal;
        ] );
      ( "packet",
        [
          Alcotest.test_case "craft/parse UDP" `Quick test_packet_craft_parse_udp;
          Alcotest.test_case "craft/parse TCP" `Quick test_packet_craft_parse_tcp;
          Alcotest.test_case "TTL incremental checksum" `Quick test_packet_ttl_update_keeps_checksum;
          Alcotest.test_case "dst rewrite checksum" `Quick test_packet_dst_rewrite_keeps_checksum;
          Alcotest.test_case "truncated raises" `Quick test_packet_truncated_raises;
          Alcotest.test_case "buffer too small" `Quick test_packet_buffer_too_small;
          qt prop_packet_checksum_roundtrip;
          qt prop_incremental_checksum_ttl;
          qt prop_incremental_checksum_dst;
          qt prop_incremental_checksum_chain;
        ] );
      ( "mempool",
        [
          Alcotest.test_case "alloc/free" `Quick test_mempool_alloc_free;
          Alcotest.test_case "exhaustion" `Quick test_mempool_exhaustion;
          Alcotest.test_case "double free" `Quick test_mempool_double_free;
          Alcotest.test_case "foreign packet" `Quick test_mempool_foreign_packet;
          Alcotest.test_case "LIFO reuse" `Quick test_mempool_lifo_reuse;
          Alcotest.test_case "mark/reclaim watermark" `Quick test_mempool_mark_reclaim;
          Alcotest.test_case "leak assertion" `Quick test_mempool_assert_no_leaks;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "single flow" `Quick test_traffic_single_flow;
          Alcotest.test_case "uniform population" `Quick test_traffic_uniform_population;
          Alcotest.test_case "zipf skew" `Quick test_traffic_zipf_skew;
          Alcotest.test_case "validation" `Quick test_traffic_validation;
        ] );
      ( "nic",
        [
          Alcotest.test_case "rx/tx cycle" `Quick test_nic_rx_tx_cycle;
          Alcotest.test_case "short rx on exhaustion" `Quick test_nic_rx_short_on_exhaustion;
        ] );
      ( "maglev",
        [
          Alcotest.test_case "table fully populated" `Quick test_maglev_table_fully_populated;
          Alcotest.test_case "balance" `Quick test_maglev_balance;
          Alcotest.test_case "deterministic lookup" `Quick test_maglev_lookup_deterministic;
          Alcotest.test_case "connection affinity" `Quick test_maglev_connection_affinity;
          Alcotest.test_case "minimal disruption" `Quick test_maglev_minimal_disruption;
          Alcotest.test_case "validation" `Quick test_maglev_validation;
          qt prop_maglev_spread;
        ] );
      ( "filters",
        [
          Alcotest.test_case "ttl drops expired" `Quick test_filter_ttl_drops_expired;
          Alcotest.test_case "checksum drops corrupt" `Quick test_filter_checksum_drops_corrupt;
          Alcotest.test_case "maglev rewrites" `Quick test_filter_maglev_rewrites;
          Alcotest.test_case "firewall verdicts" `Quick test_filter_firewall_verdicts;
          Alcotest.test_case "payload scan charges" `Quick test_filter_payload_scan_charges;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "direct" `Quick test_pipeline_direct;
          Alcotest.test_case "isolated equivalent" `Quick test_pipeline_isolated_equivalent;
          Alcotest.test_case "copying equivalent" `Quick test_pipeline_copying_equivalent;
          Alcotest.test_case "tagged counts checks" `Quick test_pipeline_tagged_counts_checks;
          Alcotest.test_case "isolation contains fault" `Quick test_pipeline_isolation_contains_fault;
          Alcotest.test_case "panic reclaims stage allocations" `Quick
            test_pipeline_panic_reclaims_stage_allocations;
          Alcotest.test_case "direct panic propagates" `Quick test_pipeline_direct_panic_propagates;
          Alcotest.test_case "empty stage list" `Quick test_pipeline_empty_stage_list_rejected;
          Alcotest.test_case "stats" `Quick test_pipeline_stats;
          Alcotest.test_case "isolated overhead band" `Quick test_pipeline_isolated_overhead_band;
        ] );
      ( "gre",
        [
          Alcotest.test_case "encap/decap roundtrip" `Quick test_gre_encap_decap_roundtrip;
          Alcotest.test_case "decap rejects plain" `Quick test_gre_decap_rejects_plain;
          Alcotest.test_case "encap buffer limit" `Quick test_gre_encap_buffer_limit;
          Alcotest.test_case "maglev-gre pipeline" `Quick test_maglev_gre_pipeline;
          qt prop_gre_roundtrip;
        ] );
      ( "integration",
        [ Alcotest.test_case "full NF chain, isolated" `Quick test_full_nf_chain_isolated ] );
      ( "heavy-hitters",
        [
          Alcotest.test_case "checkpoint copies counters" `Quick
            test_hh_checkpoint_copies_counters;
        ] );
    ]
