(* The kernel-fusion equivalence suite.

   Fusion (Isolated mode only) is an optimisation, so its contract is
   "invisible except for the crossing count": a pipeline must be
   byte-identical to the same chain with every stage wrapped in
   [Stage.barrier] (one domain per stage) — transmitted packets, NIC
   ledgers, telemetry tables, and (in the calls modes, where the
   barrier runs the kernel through [Stage.process]) the virtual cycle
   count — for *any* chain of kernels, across Direct, Tagged and
   Isolated, including mid-trace revocation, recovery and
   graceful-degradation skips that land inside a fused group. Chains
   are generated randomly from the stage catalog so opaque barriers,
   dropping filters and 5-tuple rewriters appear in arbitrary
   positions. *)

open Netstack

let qt = Seed.to_alcotest
let backends = Array.init 8 (fun i -> Printf.sprintf "backend-%d" i)
let vip = 0xC0A80001

(* ------------------------------------------------------------------ *)
(* Random chains from the stage catalog                                *)
(* ------------------------------------------------------------------ *)

(* Stage *specs*, not stages: each side builds its own stateful
   instances (rule DB, Maglev) against its own clock. [Gre] ends
   5-tuple parsing, so it may only appear as the chain's tail. *)
type spec = Csum | Ttl | Firewall | Payload | Rules | Maglev_rw | Noop_opaque | Gre

let spec_name = function
  | Csum -> "csum"
  | Ttl -> "ttl"
  | Firewall -> "firewall"
  | Payload -> "payload-scan"
  | Rules -> "ruledb"
  | Maglev_rw -> "maglev"
  | Noop_opaque -> "opaque-noop"
  | Gre -> "maglev-gre"

let build_stage ~clock = function
  | Csum -> Filters.checksum_verify
  | Ttl -> Filters.ttl_decrement
  | Firewall -> Filters.firewall ~name:"fw-even" (fun f -> f.Flow.src_port land 1 = 0)
  | Payload -> Filters.payload_scan
  | Rules ->
    let db = Ruledb.create ~clock () in
    Ruledb.add db (Ruledb.rule ~src_port:(2000, 40_000) Ruledb.Accept);
    Ruledb.add db (Ruledb.rule ~src_port:(45_000, 50_000) Ruledb.Drop);
    Ruledb.stage db
  | Maglev_rw -> Filters.maglev (Maglev.create ~clock ~backends ())
  | Noop_opaque -> Stage.opaque ~name:"opaque-noop" (fun _engine b -> b)
  | Gre -> Filters.maglev_gre (Maglev.create ~clock ~backends ()) ~vip

let arb_chain =
  let open QCheck.Gen in
  let base = oneofl [ Csum; Ttl; Firewall; Payload; Rules; Maglev_rw; Noop_opaque ] in
  let gen =
    list_size (int_range 1 6) base >>= fun prefix ->
    bool >>= fun gre -> return (if gre then prefix @ [ Gre ] else prefix)
  in
  QCheck.make ~print:(fun specs -> String.concat " -> " (List.map spec_name specs)) gen

(* The reference Isolated plan: maximal runs of fusible kernels, opaque
   singletons — computed directly from the published [Stage.fusible]
   so the pipeline's compiled plan has an independent witness. *)
let expected_groups stages =
  let flush acc run = if run = [] then acc else List.rev run :: acc in
  let acc, run =
    List.fold_left
      (fun (acc, run) (s : Stage.t) ->
        if Stage.fusible s then (acc, Stage.name s :: run)
        else (([ Stage.name s ] :: flush acc run), []))
      ([], []) stages
  in
  List.rev (flush acc run)

(* ------------------------------------------------------------------ *)
(* Paired engines: same seed, same specs, plain vs barrier-wrapped     *)
(* ------------------------------------------------------------------ *)

type mode_kind = Direct | Isolated | Tagged

let mode_name = function Direct -> "direct" | Isolated -> "isolated" | Tagged -> "tagged"

type side = {
  s_clock : Cycles.Clock.t;
  s_pool : Mempool.t;
  s_nic : Nic.t;
  s_pipe : Pipeline.t;
  s_telemetry : Telemetry.Registry.t;
}

let make_side ~mode_kind ~barriers ~specs ~seed () =
  let clock = Cycles.Clock.create () in
  let telemetry = Telemetry.Registry.create () in
  let pool = Mempool.create ~clock ~capacity:256 () in
  let engine = Engine.create ~clock ~pool ~telemetry () in
  let plan = Traffic.plan (Traffic.Zipf { flows = 32; exponent = 1.2 }) in
  let nic =
    Nic.create ~engine ~traffic:(Traffic.of_plan ~rng:(Cycles.Rng.create seed) plan) ()
  in
  let stages = List.map (build_stage ~clock) specs in
  let stages = if barriers then List.map Stage.barrier stages else stages in
  let mode =
    match mode_kind with
    | Direct -> Pipeline.Direct
    | Isolated -> Pipeline.Isolated (Sfi.Manager.create ~clock ~telemetry ())
    | Tagged -> Pipeline.Tagged
  in
  {
    s_clock = clock;
    s_pool = pool;
    s_nic = nic;
    s_pipe = Pipeline.create ~engine ~mode stages;
    s_telemetry = telemetry;
  }

(* One batch through one side: the transmitted packets' exact bytes in
   order, or the pipeline error. *)
let step side n =
  let b = Nic.rx_batch side.s_nic n in
  match Pipeline.run side.s_pipe b with
  | Ok out ->
    let outs = List.map Packet.to_string (Batch.packets out) in
    ignore (Nic.tx_batch side.s_nic out);
    Ok outs
  | Error e -> Error (Sfi.Sfi_error.to_string e)

(* The unfused reference side wraps every stage in [Stage.barrier]. *)
let make_pair ~mode_kind ~specs () =
  ( make_side ~mode_kind ~barriers:false ~specs ~seed:2017L (),
    make_side ~mode_kind ~barriers:true ~specs ~seed:2017L () )

(* Drive both sides [rounds] batches; first divergence or None. *)
let drive (fused, unfused) ~rounds ~batch =
  let divergence = ref None in
  for i = 1 to rounds do
    let f = step fused batch and u = step unfused batch in
    if !divergence = None && f <> u then
      divergence := Some (Printf.sprintf "batch %d: fused and unfused outputs differ" i)
  done;
  !divergence

let check_ledgers (fused, unfused) =
  Nic.rx_packets fused.s_nic = Nic.rx_packets unfused.s_nic
  && Nic.tx_packets fused.s_nic = Nic.tx_packets unfused.s_nic
  && Pipeline.batches_ok fused.s_pipe = Pipeline.batches_ok unfused.s_pipe
  && Pipeline.batches_failed fused.s_pipe = Pipeline.batches_failed unfused.s_pipe
  && Pipeline.batches_degraded fused.s_pipe = Pipeline.batches_degraded unfused.s_pipe

(* ------------------------------------------------------------------ *)
(* The compiled plan                                                   *)
(* ------------------------------------------------------------------ *)

let test_fusion_plan =
  QCheck.Test.make
    ~name:"fused_groups = maximal fusible runs (Isolated), singletons otherwise" ~count:100
    arb_chain
    (fun specs ->
      let clock = Cycles.Clock.create () in
      let pool = Mempool.create ~clock ~capacity:16 () in
      let engine = Engine.create ~clock ~pool ~telemetry:(Telemetry.Registry.create ()) () in
      let stages = List.map (build_stage ~clock) specs in
      let plan mode stages = Pipeline.fused_groups (Pipeline.create ~engine ~mode stages) in
      let isolated () = Pipeline.Isolated (Sfi.Manager.create ~clock ()) in
      let singletons = List.map (fun (s : Stage.t) -> [ Stage.name s ]) stages in
      plan (isolated ()) stages = expected_groups stages
      && plan (isolated ()) (List.map Stage.barrier stages) = singletons
      && List.for_all
           (fun mode -> plan mode stages = singletons)
           Pipeline.[ Direct; Tagged; Copying ])

(* ------------------------------------------------------------------ *)
(* Calls modes: byte-identical, cycle-identical, telemetry-identical   *)
(* ------------------------------------------------------------------ *)

let calls_equivalence mode_kind specs =
  let pair = make_pair ~mode_kind ~specs () in
  match drive pair ~rounds:8 ~batch:8 with
  | Some d -> QCheck.Test.fail_reportf "%s: %s" (mode_name mode_kind) d
  | None ->
    let fused, unfused = pair in
    if not (Int64.equal (Cycles.Clock.now fused.s_clock) (Cycles.Clock.now unfused.s_clock))
    then
      QCheck.Test.fail_reportf "%s: virtual cycles diverged: fused %Ld, unfused %Ld"
        (mode_name mode_kind)
        (Cycles.Clock.now fused.s_clock)
        (Cycles.Clock.now unfused.s_clock);
    if
      not
        (String.equal
           (Telemetry.Render.to_string fused.s_telemetry)
           (Telemetry.Render.to_string unfused.s_telemetry))
    then QCheck.Test.fail_reportf "%s: telemetry tables diverged" (mode_name mode_kind);
    if not (check_ledgers pair) then
      QCheck.Test.fail_reportf "%s: NIC/pipeline ledgers diverged" (mode_name mode_kind);
    Mempool.assert_no_leaks fused.s_pool;
    Mempool.assert_no_leaks unfused.s_pool;
    true

let test_direct_equivalence =
  QCheck.Test.make ~name:"direct: fused is cycle- and byte-identical on random chains"
    ~count:30 arb_chain
    (fun specs -> calls_equivalence Direct specs)

let test_tagged_equivalence =
  QCheck.Test.make ~name:"tagged: fused is cycle- and byte-identical on random chains"
    ~count:20 arb_chain
    (fun specs -> calls_equivalence Tagged specs)

(* ------------------------------------------------------------------ *)
(* Isolated mode: same outputs, fewer crossings                        *)
(* ------------------------------------------------------------------ *)

let crossings side =
  List.fold_left
    (fun acc sr -> acc + sr.Pipeline.sr_entries)
    0
    (Pipeline.stage_reports side.s_pipe)

let test_isolated_equivalence =
  QCheck.Test.make
    ~name:"isolated: fused outputs identical, one domain (and crossing) per group" ~count:20
    arb_chain
    (fun specs ->
      let pair = make_pair ~mode_kind:Isolated ~specs () in
      match drive pair ~rounds:8 ~batch:8 with
      | Some d -> QCheck.Test.fail_reportf "isolated: %s" d
      | None ->
        let fused, unfused = pair in
        if not (check_ledgers pair) then
          QCheck.Test.fail_reportf "isolated: NIC/pipeline ledgers diverged";
        let groups = List.length (Pipeline.fused_groups fused.s_pipe) in
        let n_stages = Pipeline.length fused.s_pipe in
        if List.length (Pipeline.stage_reports fused.s_pipe) <> groups then
          QCheck.Test.fail_reportf "isolated: expected one domain per fused group";
        if List.length (Pipeline.stage_reports unfused.s_pipe) <> n_stages then
          QCheck.Test.fail_reportf "isolated: expected one domain per unfused stage";
        (* The whole point: crossings scale with groups, not stages. *)
        if groups < n_stages && crossings fused >= crossings unfused then
          QCheck.Test.fail_reportf "isolated: fusion did not reduce crossings (%d >= %d)"
            (crossings fused) (crossings unfused);
        Mempool.assert_no_leaks fused.s_pool;
        Mempool.assert_no_leaks unfused.s_pool;
        true)

(* ------------------------------------------------------------------ *)
(* Revoke / recover / skip landing inside a fused group                *)
(* ------------------------------------------------------------------ *)

(* The Figure-2 NF fuses to a single 3-member group, so member index 1
   (ttl) addresses the *middle* of the group on the fused side and a
   whole domain of its own on the unfused side. *)
let test_revoke_recover_skip_mid_trace () =
  let specs = [ Csum; Ttl; Gre ] in
  let ((fused, unfused) as pair) = make_pair ~mode_kind:Isolated ~specs () in
  Alcotest.(check int) "one fused domain" 1 (List.length (Pipeline.stage_reports fused.s_pipe));
  let both f = (f fused, f unfused) in
  let check label =
    let a, b = both (fun s -> step s 8) in
    if a <> b then Alcotest.failf "%s: fused and unfused diverged" label;
    match a with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: unexpected pipeline error %s" label e
  in
  for _ = 1 to 4 do check "warm" done;
  (* Revoke through a member index: the fused side must resolve it to
     the containing group's proxy. Both sides lose exactly one batch. *)
  let r = both (fun s -> Pipeline.revoke_stage s.s_pipe 1) in
  Alcotest.(check (pair bool bool)) "revoked on both sides" (true, true) r;
  (match both (fun s -> step s 8) with
  | Error _, Error _ -> ()
  | _ -> Alcotest.fail "revoked mid-chain: both sides must fail the batch");
  Alcotest.(check (option int)) "fused failure resolves to the group's first member"
    (Some 0)
    (Pipeline.last_error_stage fused.s_pipe);
  Alcotest.(check (option int)) "unfused failure names the revoked stage" (Some 1)
    (Pipeline.last_error_stage unfused.s_pipe);
  let rec_ok = both (fun s -> Pipeline.recover_stage s.s_pipe 1) in
  Alcotest.(check bool) "both sides recover" true
    (match rec_ok with Ok (), Ok () -> true | _ -> false);
  for _ = 1 to 4 do check "after recovery" done;
  (let gen =
     List.map (fun sr -> sr.Pipeline.sr_generation) (Pipeline.stage_reports fused.s_pipe)
   in
   Alcotest.(check (list int)) "fused group's domain went through one recovery" [ 1 ] gen);
  (* Graceful degradation of a single member: the fused group must
     route around ttl only — outputs still identical to the unfused
     side skipping the same stage. *)
  ignore (both (fun s -> Pipeline.set_stage_skipped s.s_pipe 1 true));
  for _ = 1 to 4 do check "degraded (ttl skipped inside the group)" done;
  Alcotest.(check bool) "degraded batches counted identically" true
    (Pipeline.batches_degraded fused.s_pipe = Pipeline.batches_degraded unfused.s_pipe
    && Pipeline.batches_degraded fused.s_pipe > 0);
  ignore (both (fun s -> Pipeline.set_stage_skipped s.s_pipe 1 false));
  for _ = 1 to 4 do check "restored" done;
  Alcotest.(check bool) "ledgers identical end-to-end" true (check_ledgers pair);
  Mempool.assert_no_leaks fused.s_pool;
  Mempool.assert_no_leaks unfused.s_pool

(* Random revoke/recover/skip scripts over the fused Maglev NF: after
   every control action both sides must keep agreeing batch-for-batch. *)
type action = Batches of int | Revoke of int | Skip of int * bool

let arb_actions =
  let open QCheck.Gen in
  let action =
    frequency
      [
        (4, map (fun n -> Batches n) (int_range 1 3));
        (1, map (fun i -> Revoke i) (int_range 0 2));
        (2, map2 (fun i on -> Skip (i, on)) (int_range 0 2) bool);
      ]
  in
  QCheck.make
    ~print:(fun l ->
      String.concat "; "
        (List.map
           (function
             | Batches n -> Printf.sprintf "%d batches" n
             | Revoke i -> Printf.sprintf "revoke %d" i
             | Skip (i, on) -> Printf.sprintf "skip %d <- %b" i on)
           l))
    (list_size (int_range 1 10) action)

let test_control_scripts =
  QCheck.Test.make ~name:"isolated: random revoke/recover/skip scripts keep sides identical"
    ~count:25 arb_actions
    (fun script ->
      let ((fused, unfused) as pair) = make_pair ~mode_kind:Isolated ~specs:[ Csum; Ttl; Gre ] () in
      let both f = (f fused, f unfused) in
      let ok = ref true in
      List.iter
        (fun a ->
          match a with
          | Batches n ->
            for _ = 1 to n do
              let f, u = both (fun s -> step s 8) in
              if f <> u then ok := false
            done
          | Revoke i ->
            (* Clear skips first: revocation targets a *domain*, and the
               domains differ by construction — a skipped member routes
               the unfused side around its revoked singleton domain
               while the fused group's proxy still fails for the other
               members. With no skips both sides must fail identically. *)
            for j = 0 to 2 do
              ignore (both (fun s -> Pipeline.set_stage_skipped s.s_pipe j false))
            done;
            (* Revoke, observe the identical failure, recover — the
               group must come back as one unit. *)
            ignore (both (fun s -> Pipeline.revoke_stage s.s_pipe i));
            (match both (fun s -> step s 8) with
            | Error _, Error _ -> ()
            | _ -> ok := false);
            let f, u = both (fun s -> Pipeline.recover_stage s.s_pipe i) in
            if not (f = Ok () && u = Ok ()) then ok := false
          | Skip (i, on) -> ignore (both (fun s -> Pipeline.set_stage_skipped s.s_pipe i on)))
        script;
      if not !ok then QCheck.Test.fail_reportf "sides diverged under control script";
      if not (check_ledgers pair) then QCheck.Test.fail_reportf "ledgers diverged";
      Mempool.assert_no_leaks fused.s_pool;
      Mempool.assert_no_leaks unfused.s_pool;
      true)

(* ------------------------------------------------------------------ *)
(* Allocation proxy for the packet path                                *)
(* ------------------------------------------------------------------ *)

(* Words per packet, as [words ()] counts them, of [pipe] warmed over
   [batches] batches of [batch] through rx -> Pipeline.run -> tx, then
   measured over as many again. Allocation repeats exactly from run to
   run, so this is a deterministic stand-in for a wall-clock gate. *)
let words_per_pkt ~words ~nic ~pipe ~batch ~batches =
  let step () =
    match Pipeline.run pipe (Nic.rx_batch nic batch) with
    | Ok out -> ignore (Nic.tx_batch nic out)
    | Error _ -> Alcotest.fail "batch failed"
  in
  for _ = 1 to batches do step () done;
  let before = words () in
  for _ = 1 to batches do step () done;
  (words () -. before) /. float_of_int (batch * batches)

let minor_words_per_pkt = words_per_pkt ~words:Gc.minor_words

(* Every word allocated, minor or major: a block too large for the
   minor heap goes straight to the major heap, which [Gc.minor_words]
   does not see. Not [Gc.allocated_bytes]: on OCaml 5 its minor part is
   only brought up to date at a minor collection, so over a window
   shorter than one it reads whole minor heaps or nothing. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let check_words ?(kind = "minor") what per_pkt bound =
  if per_pkt > bound then
    Alcotest.failf "%s allocated %.4f %s words per packet (bound %.2f)" what per_pkt kind bound

(* The warmed Figure-2 Maglev NF (Direct): 663 words per
   32-packet batch, 20.72 per packet. One boxed tuple per packet in a
   stage kernel adds 3 words per packet and fails it. The same before
   the preallocated NIC template slab: 1024 flows fit the template
   slots, so the warmed loop never misses one. *)
let test_maglev_nf_minor_words () =
  let env = Experiments.Env.make ~telemetry:(Telemetry.Registry.create ()) () in
  let _mg, stages = Experiments.Env.maglev_nf env in
  let pipe = Pipeline.create ~engine:env.Experiments.Env.engine ~mode:Pipeline.Direct stages in
  check_words "maglev NF"
    (minor_words_per_pkt ~nic:env.Experiments.Env.nic ~pipe ~batch:32 ~batches:256)
    20.72

(* E17's cached megaflow chain (ruledb -> csum -> ttl -> maglev-gre
   behind a 4096-entry flowcache, Direct) over a 20k-flow Zipf(1.2)
   mix, so the measured window mixes hits, installs, evictions and
   slow-path classifications. Measured 38.614 words per packet,
   bounded at 38.62. Before the preallocated NIC template slab it read
   42.134 (bound 42.14), each template miss allocating a frame string;
   the record-scan rule DB before the compiled table read 42.71, its
   classify allocating 5 words per call. *)
let test_megaflow_minor_words () =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:4096 () in
  let engine = Engine.create ~clock ~pool () in
  let plan = Traffic.plan (Traffic.Zipf { flows = 20_000; exponent = 1.2 }) in
  let traffic = Traffic.of_plan ~rng:(Cycles.Rng.create 2017L) plan in
  let nic = Nic.create ~engine ~traffic () in
  let fc = Flowcache.create ~clock ~capacity:4096 ~ttl_cycles:(Int64.shift_left 1L 62) () in
  let stages = Experiments.Megaflow.make_stages ~clock () in
  let pipe = Pipeline.create ~engine ~mode:Pipeline.Direct ~flowcache:fc stages in
  check_words "cached megaflow chain"
    (minor_words_per_pkt ~nic ~pipe ~batch:32 ~batches:256)
    38.62

(* The flowtab chain (csum -> flowtab, Direct; 2^16 buckets in 64
   chunks, an in-memory snapshot every 64 batches), counting every word
   allocated: each snapshot encodes its dirty chunk payloads, and how
   many words those take depends on the payload size, not on which heap
   they land in. With 8 bytes per slot, each 1024-slot payload (8 KiB)
   went straight to the major heap: 19.068 minor words but 51.132 words
   in all per packet. A presence bitmap and the nonzero slots (~256 B
   per payload, minor) read 20.130 minor and 20.131 in all (the
   difference is the counters' own tuple); bounded at 20.14. *)
let test_flowtab_words () =
  let env = Experiments.Env.make ~telemetry:(Telemetry.Registry.create ()) () in
  let ctx =
    {
      Shard.qc_queue = 0;
      qc_clock = env.Experiments.Env.clock;
      qc_registry = Telemetry.Registry.create ();
      qc_flowcache = None;
    }
  in
  let buckets = 1 lsl 16 in
  let ft = Flowtab.create ~buckets ~chunk:(buckets / 64) ~snapshot_every:64 ctx in
  let pipe =
    Pipeline.create ~engine:env.Experiments.Env.engine ~mode:Pipeline.Direct
      [ Filters.checksum_verify; Flowtab.stage ft ]
  in
  check_words ~kind:"allocated" "flowtab chain"
    (words_per_pkt ~words:allocated_words ~nic:env.Experiments.Env.nic ~pipe ~batch:32
       ~batches:256)
    20.14

(* [Nic.rx_batch_into] alone over 65 536 uniform flows, eight times
   the NIC's 8192 template slots, so most arrivals miss their slot and
   are crafted and stored. The warm-up draws 2^19 arrivals, by which
   point all but ~20 flows are interned by the generator. What is left
   is the 5-word [Packet.t] handle {!Mempool.alloc_into} gives each
   arrival, plus those few flow records: measured 5.0011 words per
   packet. Before the preallocated template slab, a miss allocated a
   fresh frame string, its [String.init] closure and a [write_l4]
   closure: 21.58 words per packet. *)
let test_rx_minor_words () =
  let env = Experiments.Env.make ~flows:65_536 ~telemetry:(Telemetry.Registry.create ()) () in
  let nic = env.Experiments.Env.nic in
  let batch = Batch.create ~capacity:32 in
  let step () =
    Nic.rx_batch_into nic batch 32;
    Nic.drop_batch nic batch
  in
  for _ = 1 to (1 lsl 19) / 32 do step () done;
  let batches = (1 lsl 16) / 32 in
  let before = Gc.minor_words () in
  for _ = 1 to batches do step () done;
  check_words "rx over 65536 flows"
    ((Gc.minor_words () -. before) /. float_of_int (32 * batches))
    5.01

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fusion"
    [
      ("plan", [ qt test_fusion_plan ]);
      ( "calls-modes",
        [ qt test_direct_equivalence; qt test_tagged_equivalence ] );
      ("isolated", [ qt test_isolated_equivalence ]);
      ( "mid-trace",
        [
          Alcotest.test_case "revoke/recover/skip inside a fused group" `Quick
            test_revoke_recover_skip_mid_trace;
          qt test_control_scripts;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "maglev NF rx->run->tx minor words per packet" `Quick
            test_maglev_nf_minor_words;
          Alcotest.test_case "cached megaflow rx->run->tx minor words per packet" `Quick
            test_megaflow_minor_words;
          Alcotest.test_case "flowtab rx->run->tx words allocated per packet" `Quick
            test_flowtab_words;
          Alcotest.test_case "rx over 65536 flows minor words per packet" `Quick
            test_rx_minor_words;
        ] );
    ]
