(* The kernel-fusion equivalence suite.

   The fusion pass is an optimisation, so its contract is "invisible
   except for the crossing count": a fused pipeline must be
   byte-identical to the unfused chain — transmitted packets, NIC
   ledgers, telemetry tables, and (in the calls modes) the virtual
   cycle count — for *any* chain of kernels, across Direct, Tagged
   and Isolated, including mid-trace revocation, recovery and
   graceful-degradation skips that land inside a fused group. Chains
   are generated randomly from the stage catalog so opaque barriers,
   dropping filters and 5-tuple rewriters appear in arbitrary
   positions. *)

open Netstack

let qt = QCheck_alcotest.to_alcotest
let backends = Array.init 8 (fun i -> Printf.sprintf "backend-%d" i)
let vip = 0xC0A80001

(* ------------------------------------------------------------------ *)
(* Random chains from the stage catalog                                *)
(* ------------------------------------------------------------------ *)

(* Stage *specs*, not stages: each side builds its own stateful
   instances (rule DB, NAT, Maglev) against its own clock. [Gre] ends
   5-tuple parsing, so it may only appear as the chain's tail. *)
type spec = Csum | Ttl | Firewall | Payload | Rules | Nat_rw | Noop_opaque | Gre

let spec_name = function
  | Csum -> "csum"
  | Ttl -> "ttl"
  | Firewall -> "firewall"
  | Payload -> "payload-scan"
  | Rules -> "ruledb"
  | Nat_rw -> "nat"
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
  | Nat_rw -> Nat.stage (Nat.create ~clock ~external_ip:0xC6336401 ())
  | Noop_opaque -> Stage.opaque ~name:"opaque-noop" (fun _engine b -> b)
  | Gre -> Filters.maglev_gre (Maglev.create ~clock ~backends ()) ~vip

let arb_chain =
  let open QCheck.Gen in
  let base = oneofl [ Csum; Ttl; Firewall; Payload; Rules; Nat_rw; Noop_opaque ] in
  let gen =
    list_size (int_range 1 6) base >>= fun prefix ->
    bool >>= fun gre -> return (if gre then prefix @ [ Gre ] else prefix)
  in
  QCheck.make ~print:(fun specs -> String.concat " -> " (List.map spec_name specs)) gen

(* The reference fusion plan: maximal runs of fusible kernels, opaque
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
(* Paired engines: same seed, same specs, fused vs unfused             *)
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

let make_side ~mode_kind ~fuse ~specs ~seed () =
  let clock = Cycles.Clock.create () in
  let telemetry = Telemetry.Registry.create () in
  let pool = Mempool.create ~clock ~capacity:256 () in
  let engine = Engine.create ~clock ~pool ~telemetry () in
  let plan = Traffic.plan (Traffic.Zipf { flows = 32; exponent = 1.2 }) in
  let nic =
    Nic.create ~engine ~traffic:(Traffic.of_plan ~rng:(Cycles.Rng.create seed) plan) ()
  in
  let stages = List.map (build_stage ~clock) specs in
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
    s_pipe = Pipeline.create ~engine ~mode ~fuse stages;
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

let make_pair ~mode_kind ~specs () =
  ( make_side ~mode_kind ~fuse:true ~specs ~seed:2017L (),
    make_side ~mode_kind ~fuse:false ~specs ~seed:2017L () )

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
  QCheck.Test.make ~name:"fused_groups = maximal fusible runs (and singletons unfused)"
    ~count:100 arb_chain
    (fun specs ->
      let clock = Cycles.Clock.create () in
      let pool = Mempool.create ~clock ~capacity:16 () in
      let engine = Engine.create ~clock ~pool ~telemetry:(Telemetry.Registry.create ()) () in
      let stages = List.map (build_stage ~clock) specs in
      let fused = Pipeline.create ~engine ~mode:Pipeline.Direct stages in
      let unfused = Pipeline.create ~engine ~mode:Pipeline.Direct ~fuse:false stages in
      let copying = Pipeline.create ~engine ~mode:Pipeline.Copying stages in
      let singletons = List.map (fun (s : Stage.t) -> [ Stage.name s ]) stages in
      Pipeline.fused_groups fused = expected_groups stages
      && Pipeline.fused_groups unfused = singletons
      && Pipeline.fused_groups copying = singletons)

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

(* A deterministic stand-in for a wall-clock gate: minor-heap words
   per packet of the warmed Figure-2 Maglev NF (Direct, fused) through
   rx -> Pipeline.run -> tx. Allocation repeats exactly from run to
   run, so the bound is the measured value (663 words per 32-packet
   batch, 20.72 per packet). One boxed tuple per packet in a stage
   kernel adds 3 words per packet and fails it. *)
let test_maglev_nf_minor_words () =
  let env = Experiments.Env.make () in
  let _mg, stages = Experiments.Env.maglev_nf env in
  let pipe = Pipeline.create ~engine:env.Experiments.Env.engine ~mode:Pipeline.Direct stages in
  Alcotest.(check int) "one fused group" 1 (List.length (Pipeline.fused_groups pipe));
  let nic = env.Experiments.Env.nic and batch = 32 and batches = 256 in
  let step () =
    match Pipeline.run pipe (Nic.rx_batch nic batch) with
    | Ok out -> ignore (Nic.tx_batch nic out)
    | Error _ -> Alcotest.fail "maglev NF batch failed"
  in
  for _ = 1 to batches do step () done;
  let before = Gc.minor_words () in
  for _ = 1 to batches do step () done;
  let per_pkt = (Gc.minor_words () -. before) /. float_of_int (batch * batches) in
  if per_pkt > 20.72 then
    Alcotest.failf "maglev NF allocated %.4f minor words per packet (bound 20.72)" per_pkt

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
        ] );
    ]
