(* The structure-of-arrays header-plane equivalence suite.

   The column plane is an optimisation, so its contract is
   "invisible": a chain built from column ([Stage.Cols]) kernels must
   be byte-identical to the same chain built from the write-through
   byte stages of the oracle (Hdr_oracle) — transmitted frames, virtual cycles, telemetry tables,
   NIC/pipeline ledgers — for *any* chain, with byte-reading barriers
   (opaque stages, RFC 1071 verifiers, flowcache guard capture) landing
   in arbitrary positions, over UDP or TCP frames of any payload length. Deferred writes must
   be flushed at every such barrier: a reader of wire bytes can never
   observe a stale header. *)

open Netstack

let qt = Seed.to_alcotest
let backends = Array.init 8 (fun i -> Printf.sprintf "backend-%d" i)

(* ------------------------------------------------------------------ *)
(* Random twin chains                                                  *)
(* ------------------------------------------------------------------ *)

(* Specs with a column stage and an oracle byte stage build one or the
   other per side; barrier specs (byte-reading stages) are identical on
   both sides and force materialization mid-chain. *)
type spec =
  | Ttl          (* twin: ttl_decrement vs Hdr_oracle.ttl_decrement_bytes *)
  | Maglev_rw    (* twin: maglev vs Hdr_oracle.maglev_bytes *)
  | Firewall     (* Cols reader, same stage both sides *)
  | Rules        (* Cols reader, same stage both sides *)
  | Csum         (* Bytes barrier: RFC 1071 fold over wire bytes *)
  | Snapshot     (* Opaque barrier: reads every frame's bytes *)

let spec_name = function
  | Ttl -> "ttl"
  | Maglev_rw -> "maglev"
  | Firewall -> "firewall"
  | Rules -> "ruledb"
  | Csum -> "csum"
  | Snapshot -> "snapshot"

(* The opaque barrier snapshots every packet's bytes into [sink]: if a
   deferred column write survived to this point unmaterialized, the
   snapshot (and the cross-side comparison of [sink]) exposes it. A
   slot whose clean plane disagrees with its bytes is marked too, so a
   byte store that forgot [Batch.invalidate_hdr] shows even when no
   later stage reads the stale column. *)
let snapshot_stage sink =
  Stage.opaque ~name:"snapshot" (fun _engine b ->
      for i = 0 to Batch.length b - 1 do
        let frame = Packet.to_string (Batch.get b i) in
        sink := (if Batch.hdr_consistent b i then frame else "stale plane " ^ frame) :: !sink
      done;
      b)

let build_stage ~clock ~soa ~sink = function
  | Ttl -> if soa then Filters.ttl_decrement else Hdr_oracle.ttl_decrement_bytes
  | Maglev_rw ->
    let mg = Maglev.create ~clock ~backends () in
    if soa then Filters.maglev mg else Hdr_oracle.maglev_bytes mg
  | Firewall -> Filters.firewall ~name:"fw-even" (fun f -> f.Flow.src_port land 1 = 0)
  | Rules ->
    let db = Ruledb.create ~clock () in
    Ruledb.add db (Ruledb.rule ~src_port:(2000, 40_000) Ruledb.Accept);
    Ruledb.add db (Ruledb.rule ~src_port:(45_000, 50_000) Ruledb.Drop);
    Ruledb.stage db
  | Csum -> Filters.checksum_verify
  | Snapshot -> snapshot_stage sink

(* A generated case: the chain plus the traffic it runs over. Payloads
   are mostly minimum-size, with a tail up to a full 1500-byte MTU. *)
type case = { specs : spec list; protocol : Flow.protocol; payload_bytes : int }

let print_case c =
  Printf.sprintf "%s [%s, payload=%d]"
    (String.concat " -> " (List.map spec_name c.specs))
    (match c.protocol with Flow.Udp -> "udp" | Flow.Tcp -> "tcp")
    c.payload_bytes

let arb_case specs =
  let open QCheck.Gen in
  let gen =
    specs >>= fun specs ->
    oneofl [ Flow.Udp; Flow.Tcp ] >>= fun protocol ->
    frequency [ (3, int_range 0 64); (1, int_range 0 1500) ] >>= fun payload_bytes ->
    return { specs; protocol; payload_bytes }
  in
  QCheck.make ~print:print_case gen

let arb_chain =
  let open QCheck.Gen in
  let any =
    oneofl [ Ttl; Maglev_rw; Firewall; Rules; Csum; Snapshot ]
  in
  arb_case (list_size (int_range 1 6) any)

(* At least one rewriting twin and at least one mid-chain barrier, so
   every generated case actually exercises deferred writeback hitting a
   byte reader. *)
let arb_barrier_chain =
  let open QCheck.Gen in
  let rw = oneofl [ Ttl; Maglev_rw ] in
  let barrier = oneofl [ Csum; Snapshot ] in
  let filler = oneofl [ Firewall; Rules; Ttl; Maglev_rw ] in
  arb_case
    ( rw >>= fun a ->
      barrier >>= fun b ->
      list_size (int_range 0 3) filler >>= fun tail -> return ((a :: b :: tail) @ [ Csum ]) )

(* ------------------------------------------------------------------ *)
(* Paired sides: same seed and case, column kernels vs oracle stages   *)
(* ------------------------------------------------------------------ *)

type side = {
  s_clock : Cycles.Clock.t;
  s_pool : Mempool.t;
  s_nic : Nic.t;
  s_pipe : Pipeline.t;
  s_telemetry : Telemetry.Registry.t;
  s_sink : string list ref;  (* opaque-barrier snapshots, newest first *)
}

let make_side ?flowcache_capacity ~soa ~case ~seed () =
  let clock = Cycles.Clock.create () in
  let telemetry = Telemetry.Registry.create () in
  let pool = Mempool.create ~clock ~capacity:256 () in
  let engine = Engine.create ~clock ~pool ~telemetry () in
  let plan =
    Traffic.plan ~protocol:case.protocol ~payload_bytes:case.payload_bytes
      (Traffic.Zipf { flows = 32; exponent = 1.2 })
  in
  let nic =
    Nic.create ~engine ~traffic:(Traffic.of_plan ~rng:(Cycles.Rng.create seed) plan) ()
  in
  let sink = ref [] in
  let stages = List.map (build_stage ~clock ~soa ~sink) case.specs in
  let flowcache =
    Option.map
      (fun capacity ->
        Flowcache.create ~clock ~telemetry ~capacity ~ttl_cycles:2_000_000L ())
      flowcache_capacity
  in
  {
    s_clock = clock;
    s_pool = pool;
    s_nic = nic;
    s_pipe = Pipeline.create ~engine ~mode:Pipeline.Direct ?flowcache stages;
    s_telemetry = telemetry;
    s_sink = sink;
  }

let step side n =
  let b = Nic.rx_batch side.s_nic n in
  match Pipeline.run side.s_pipe b with
  | Ok out ->
    let outs = List.map Packet.to_string (Batch.packets out) in
    ignore (Nic.tx_batch side.s_nic out);
    Ok outs
  | Error e -> Error (Sfi.Sfi_error.to_string e)

let drive (soa, bytes) ~rounds ~batch =
  let divergence = ref None in
  for i = 1 to rounds do
    let s = step soa batch and b = step bytes batch in
    if !divergence = None && s <> b then
      divergence := Some (Printf.sprintf "batch %d: soa and bytes outputs differ" i)
  done;
  !divergence

let check_pair ?(label = "") ((soa, bytes) as pair) ~rounds ~batch =
  (match drive pair ~rounds ~batch with
  | Some d -> QCheck.Test.fail_reportf "%s%s" label d
  | None -> ());
  if not (Int64.equal (Cycles.Clock.now soa.s_clock) (Cycles.Clock.now bytes.s_clock))
  then
    QCheck.Test.fail_reportf "%svirtual cycles diverged: soa %Ld, bytes %Ld" label
      (Cycles.Clock.now soa.s_clock) (Cycles.Clock.now bytes.s_clock);
  if
    not
      (String.equal
         (Telemetry.Render.to_string soa.s_telemetry)
         (Telemetry.Render.to_string bytes.s_telemetry))
  then QCheck.Test.fail_reportf "%stelemetry tables diverged" label;
  if not (!(soa.s_sink) = !(bytes.s_sink)) then
    QCheck.Test.fail_reportf
      "%sopaque barrier observed different bytes (stale deferred write?)" label;
  if
    not
      (Nic.rx_packets soa.s_nic = Nic.rx_packets bytes.s_nic
      && Nic.tx_packets soa.s_nic = Nic.tx_packets bytes.s_nic
      && Pipeline.batches_ok soa.s_pipe = Pipeline.batches_ok bytes.s_pipe
      && Pipeline.batches_failed soa.s_pipe = Pipeline.batches_failed bytes.s_pipe)
  then QCheck.Test.fail_reportf "%sNIC/pipeline ledgers diverged" label;
  Mempool.assert_no_leaks soa.s_pool;
  Mempool.assert_no_leaks bytes.s_pool;
  true

let make_pair ?flowcache_capacity ~case () =
  ( make_side ?flowcache_capacity ~soa:true ~case ~seed:4021L (),
    make_side ?flowcache_capacity ~soa:false ~case ~seed:4021L () )

(* ------------------------------------------------------------------ *)
(* Equivalence on random chains                                        *)
(* ------------------------------------------------------------------ *)

let test_equivalence_fused =
  QCheck.Test.make ~name:"fused: column chains byte/cycle-identical to byte twins"
    ~count:30 arb_chain
    (fun case -> check_pair (make_pair ~case ()) ~rounds:8 ~batch:8)

let test_barrier_chains =
  QCheck.Test.make
    ~name:"forced materialization: byte barriers mid-chain observe canonical bytes"
    ~count:30 arb_barrier_chain
    (fun case ->
      check_pair ~label:"barrier: " (make_pair ~case ()) ~rounds:6 ~batch:8)

let test_flowcache_guard =
  QCheck.Test.make
    ~name:"flowcache: guard capture over column chains matches byte twins" ~count:15
    arb_barrier_chain
    (fun case ->
      check_pair ~label:"flowcache: "
        (make_pair ~flowcache_capacity:64 ~case ())
        ~rounds:6 ~batch:8)

(* ------------------------------------------------------------------ *)
(* Deferred writeback is observable only as canonical bytes            *)
(* ------------------------------------------------------------------ *)

(* Column rewrites (ttl + maglev dst) land in the plane; the opaque
   tail must nonetheless read fully-rewritten, checksum-valid frames:
   the pipeline materializes before every byte reader. *)
let test_deferred_writes_canonical_at_barrier () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:64 () in
  let engine =
    Engine.create ~clock ~pool ~telemetry:(Telemetry.Registry.create ()) ()
  in
  let plan = Traffic.plan (Traffic.Uniform { flows = 16 }) in
  let nic =
    Nic.create ~engine ~traffic:(Traffic.of_plan ~rng:(Cycles.Rng.create 99L) plan) ()
  in
  let mg = Maglev.create ~clock ~backends () in
  let seen = ref 0 in
  let audit =
    Stage.opaque ~name:"audit" (fun _engine b ->
        for i = 0 to Batch.length b - 1 do
          let p = Batch.get b i in
          incr seen;
          if Packet.ttl p <> 63 then Alcotest.failf "stale TTL byte at barrier";
          if Packet.dst_ip_int p lsr 16 <> 0x0A01 then
            Alcotest.failf "stale dst-ip bytes at barrier";
          if not (Packet.ipv4_checksum_ok p) then
            Alcotest.failf "checksum not refolded at barrier";
          if not (Batch.hdr_consistent b i) then
            Alcotest.failf "plane and bytes disagree after materialization"
        done;
        b)
  in
  let pipe =
    Pipeline.create ~engine ~mode:Pipeline.Direct
      [ Filters.ttl_decrement; Filters.maglev mg; audit ]
  in
  for _ = 1 to 6 do
    let b = Nic.rx_batch nic 8 in
    match Pipeline.run pipe b with
    | Ok out -> ignore (Nic.tx_batch nic out)
    | Error e -> Alcotest.failf "pipeline error: %s" (Sfi.Sfi_error.to_string e)
  done;
  Alcotest.(check bool) "audit saw packets" true (!seen = 48);
  Mempool.assert_no_leaks pool

(* A chain with NO barrier defers until tx: before [tx_batch] the
   plane is dirty, after it the batch is gone and the NIC transmitted
   materialized frames (checked via take_all on a copy run). *)
let test_materialize_only_at_tx () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:64 () in
  let engine =
    Engine.create ~clock ~pool ~telemetry:(Telemetry.Registry.create ()) ()
  in
  let plan = Traffic.plan (Traffic.Uniform { flows = 16 }) in
  let nic =
    Nic.create ~engine ~traffic:(Traffic.of_plan ~rng:(Cycles.Rng.create 7L) plan) ()
  in
  let pipe =
    Pipeline.create ~engine ~mode:Pipeline.Direct [ Filters.ttl_decrement ]
  in
  let b = Nic.rx_batch nic 8 in
  match Pipeline.run pipe b with
  | Error e -> Alcotest.failf "pipeline error: %s" (Sfi.Sfi_error.to_string e)
  | Ok out ->
    (* take_all materializes: every frame handed out is canonical. *)
    let frames = Batch.take_all out in
    List.iter
      (fun p ->
        if Packet.ttl p <> 63 then Alcotest.failf "tx frame carries stale TTL";
        if not (Packet.ipv4_checksum_ok p) then
          Alcotest.failf "tx frame carries stale checksum")
      frames;
    List.iter (Mempool.free pool) frames;
    Mempool.assert_no_leaks pool

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "soa"
    [
      ( "equivalence",
        [ qt test_equivalence_fused ] );
      ( "barriers",
        [
          qt test_barrier_chains;
          qt test_flowcache_guard;
          Alcotest.test_case "deferred writes canonical at opaque barrier" `Quick
            test_deferred_writes_canonical_at_barrier;
          Alcotest.test_case "chains without barriers materialize at tx" `Quick
            test_materialize_only_at_tx;
        ] );
    ]
