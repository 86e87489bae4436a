(* Bechamel wall-clock microbenchmarks.

   The experiment tables are produced by the deterministic cycle model;
   these benches measure the same operations in real nanoseconds on the
   host, as a sanity check that relative ordering survives outside the
   simulator (absolute values are host-dependent and not comparable
   with the paper's Xeon numbers). One Test.make per paper artefact.

   An advisory printout with no gate: the measured wall-clock
   benchmark, with per-layer breakdowns and paired A/B, is
   layerbench/ (DESIGN.md §10).

   Usage:
     dune exec bench/wallclock.exe             # best of 3 passes (make bench)
     dune exec bench/wallclock.exe -- --quick  # one short pass (CI smoke) *)

open Bechamel
open Toolkit

let make_counter_rref () =
  let mgr = Sfi.Manager.create () in
  let d = Sfi.Manager.create_domain mgr ~name:"svc" () in
  Sfi.Rref.create d ~label:"counter" (ref 0)

(* E1/Figure 2: the protected call itself. *)
let bench_rref_invoke =
  let rref = make_counter_rref () in
  Test.make ~name:"fig2: rref invoke (protected call)"
    (Staged.stage (fun () ->
         match Sfi.Rref.invoke rref (fun c -> incr c) with
         | Ok () -> ()
         | Error _ -> assert false))

let bench_direct_call =
  let c = ref 0 in
  let f = Sys.opaque_identity (fun () -> incr c) in
  Test.make ~name:"fig2: plain function call (baseline)" (Staged.stage (fun () -> f ()))

(* E3: catch + recover. *)
let bench_recovery =
  let mgr = Sfi.Manager.create () in
  let d =
    Sfi.Manager.create_domain mgr ~name:"flaky"
      ~recovery:(fun _ -> ())
      ()
  in
  Test.make ~name:"e3: panic catch + domain recovery"
    (Staged.stage (fun () ->
         (match Sfi.Pdomain.execute d (fun () -> Sfi.Panic.panic "x") with
         | Error _ -> ()
         | Ok _ -> assert false);
         match Sfi.Manager.recover mgr d with
         | Ok () -> ()
         | Error _ -> assert false))

(* E4: one batch through the Maglev NF, direct vs isolated. *)
let make_pipeline mode_of_env =
  let env = Experiments.Env.make () in
  let _mg, stages = Experiments.Env.maglev_nf env in
  let pipe =
    Netstack.Pipeline.create ~engine:env.Experiments.Env.engine ~mode:(mode_of_env env) stages
  in
  (env, pipe)

let bench_pipeline name mode_of_env =
  let env, pipe = make_pipeline mode_of_env in
  Test.make ~name
    (Staged.stage (fun () ->
         let b = Netstack.Nic.rx_batch env.Experiments.Env.nic 32 in
         match Netstack.Pipeline.run pipe b with
         | Ok out -> ignore (Netstack.Nic.tx_batch env.Experiments.Env.nic out)
         | Error _ -> assert false))

let bench_maglev_lookup =
  let clock = Cycles.Clock.create () in
  let mg = Netstack.Maglev.create ~clock ~backends:Experiments.Env.maglev_backends () in
  let rng = Cycles.Rng.create 3L in
  let traffic = Netstack.Traffic.create ~rng (Netstack.Traffic.Uniform { flows = 1024 }) in
  Test.make ~name:"e4: maglev lookup (per flow)"
    (Staged.stage (fun () -> ignore (Netstack.Maglev.lookup mg (Netstack.Traffic.next_flow traffic))))

(* E14: the RSS steering decision on the receive path. *)
let bench_rss_steer =
  let rss = Netstack.Rss.create ~queues:8 () in
  let rng = Cycles.Rng.create 11L in
  let traffic = Netstack.Traffic.create ~rng (Netstack.Traffic.Uniform { flows = 1024 }) in
  Test.make ~name:"e14: rss steer (per flow)"
    (Staged.stage (fun () ->
         ignore (Netstack.Rss.queue rss (Netstack.Traffic.next_flow traffic))))

(* The rx layer alone: one 32-packet [Nic.rx_batch], dropped back to
   the pool, at 1024 flows (every template slot hits once warm) and at
   65536 flows (eight flows per template slot, so most arrivals are
   crafted); and the generator draw rx makes twice per packet. *)
let bench_rx flows =
  let env = Experiments.Env.make ~flows () in
  let nic = env.Experiments.Env.nic in
  Test.make
    ~name:(Printf.sprintf "rx: nic rx_batch 32 (%d flows)" flows)
    (Staged.stage (fun () -> Netstack.Nic.drop_batch nic (Netstack.Nic.rx_batch nic 32)))

let bench_rng_int =
  let rng = Cycles.Rng.create 5L in
  Test.make ~name:"rx: rng int (bound 4096)"
    (Staged.stage (fun () -> ignore (Sys.opaque_identity (Cycles.Rng.int rng 4096))))

(* E17's slow path: one classify on the 768-rule wall table by a flow
   that matches no rule, so the scan examines every row; and, apart,
   the one [Clock.touch_lines] over the rule table's 192 lines that the
   scan charges to the simulated cache. The second row is the
   simulator's share of the first. *)
let bench_ruledb_miss =
  let clock = Cycles.Clock.create () in
  let db =
    Experiments.Megaflow.rule_db ~clock ~rule_pad:Experiments.Megaflow.wall_rule_pad ()
  in
  let flow =
    Netstack.Flow.make ~src_ip:0x0A000102l ~dst_ip:0xC0A80001l ~src_port:1000 ~dst_port:80
      ~protocol:Netstack.Flow.Tcp
  in
  Test.make ~name:"e17: ruledb classify (768 rules, no match)"
    (Staged.stage (fun () -> ignore (Netstack.Ruledb.classify db flow)))

let bench_ruledb_touches =
  let clock = Cycles.Clock.create () in
  let table = Cycles.Clock.alloc_addr clock ~bytes:(4096 * 16) in
  Test.make ~name:"e17: 192 rule-table line touches (simulator)"
    (Staged.stage (fun () -> Cycles.Clock.touch_lines clock table ~n:192))

(* E5/E6: verification passes. *)
let bench_verify name strategy program =
  Test.make ~name
    (Staged.stage (fun () ->
         match Ifc.Verifier.verify ~strategy program with
         | Ok _ -> ()
         | Error _ -> assert false))

(* E8/E9: checkpointing the firewall DB. *)
let bench_checkpoint name strategy =
  let db =
    Experiments.Ckpt_cost.make_database ~rng:(Cycles.Rng.create 7L) ~rules:500 ~alias_factor:2
  in
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Chkpt.Checkpointable.checkpoint ~strategy Chkpt.Trie.desc db)))

(* E16: steady-state incremental sync of the same 500-rule DB — the
   O(dirty) counterpart of the full-traversal fig3 rows. *)
let bench_incr_sync name ~dirty_pct =
  let step = Experiments.Ckpt_incr.bench_incr ~dirty_pct in
  Test.make ~name (Staged.stage step)

(* E21: summary-cached reverification over the generated 500-function
   corpus. The compositional row hits Summary's per-instance memo after
   the first run, so it prices summary {e application} (the main pass),
   directly comparable with the cache-hit row; [cold] rebuilds from an
   empty cache every run; [warm] edits 1% of bodies before each run —
   the steady-state editing workload. Exact inlining takes ~500ms on
   this corpus (path re-emission), far past the per-run quota, so the
   exact strategy keeps its store-32 row above. *)
let bench_reverify name setup = Test.make ~name (Staged.stage (setup ()))

(* E21's front end: parsing the rendered 500-function corpus. [`Cold]
   empties the parser's body memo before every run; [`Unchanged]
   reparses the same text, so every body hits and what is left is the
   headers, [main] and the digests; [`Edited] alternates between the
   corpus and a copy with one body edited, so every run reparses one
   body and reuses the other 499. *)
let bench_parse name memo =
  let p = Ifc.Gen.generate Ifc.Gen.default in
  let a = Ifc.Parse.to_source p in
  let b = Ifc.Parse.to_source (fst (Ifc.Gen.edit ~seed:1L ~edits:1 Ifc.Gen.default p)) in
  let flip = ref false in
  Test.make ~name
    (Staged.stage (fun () ->
         (match memo with
         | `Cold -> Ifc.Parse.forget ()
         | `Unchanged -> ()
         | `Edited -> flip := not !flip);
         ignore (Ifc.Parse.program (if !flip then b else a))))

(* E21's back end with nothing to recompute: two parses of the unchanged
   corpus text (bodies shared, headers fresh, as after a reparse),
   reverified in turn against one cache. Every summary hits, so the run
   prices what a round pays whatever it edits: the main pass, validation
   of [main] and the walk over the functions. *)
let bench_reverify_unchanged name =
  let text = Ifc.Parse.to_source (Ifc.Gen.generate Ifc.Gen.default) in
  let parse () =
    match Ifc.Parse.program text with Ok p -> p | Error e -> failwith (Ifc.Parse.error_to_string e)
  in
  let a = parse () in
  let b = parse () in
  let cache = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) () in
  let reverify p = ignore (Result.get_ok (Ifc.Summary_cache.reverify cache p)) in
  reverify a;
  let flip = ref false in
  Test.make ~name
    (Staged.stage (fun () ->
         flip := not !flip;
         reverify (if !flip then b else a)))

let tests =
  Test.make_grouped ~name:"beyond-safety" ~fmt:"%s %s"
    [
      bench_direct_call;
      bench_rref_invoke;
      bench_recovery;
      bench_pipeline "e4: maglev NF batch, direct" (fun _ -> Netstack.Pipeline.Direct);
      bench_pipeline "e4: maglev NF batch, isolated" (fun env ->
          Netstack.Pipeline.Isolated env.Experiments.Env.manager);
      bench_maglev_lookup;
      bench_rss_steer;
      bench_rx 1024;
      bench_rx 65536;
      bench_rng_int;
      bench_ruledb_miss;
      bench_ruledb_touches;
      bench_verify "e5: verify buffer (exact)" Ifc.Verifier.Exact Ifc.Examples.buffer_leak_safe;
      bench_verify "e6: verify store-32 (exact/inline)" Ifc.Verifier.Exact
        (Ifc.Examples.secure_store ~clients:32 ());
      bench_verify "e6: verify store-32 (compositional)" Ifc.Verifier.Compositional
        (Ifc.Examples.secure_store ~clients:32 ());
      bench_verify "e6: verify store-32 (andersen)" Ifc.Verifier.Andersen
        (Ifc.Examples.secure_store ~clients:32 ());
      bench_checkpoint "fig3: checkpoint 500-rule DB (rc flag)" Chkpt.Checkpointable.Rc_flag;
      bench_checkpoint "fig3: checkpoint 500-rule DB (addr set)" Chkpt.Checkpointable.Addr_set;
      bench_checkpoint "fig3: checkpoint 500-rule DB (naive)" Chkpt.Checkpointable.Naive;
      bench_incr_sync "e16: incremental sync 500-rule DB (1% dirty)" ~dirty_pct:1;
      bench_incr_sync "e16: incremental sync 500-rule DB (10% dirty)" ~dirty_pct:10;
      bench_verify "e21: verify gen-500 (compositional)" Ifc.Verifier.Compositional
        (Ifc.Gen.generate Ifc.Gen.default);
      bench_reverify "e21: ifc summary cold (gen-500)" Experiments.Reverify.bench_cold;
      bench_reverify "e21: ifc summary hit (gen-500)" Experiments.Reverify.bench_hit;
      bench_reverify "e21: ifc summary warm-1pct (gen-500)" (fun () ->
          Experiments.Reverify.bench_warm ());
      bench_reverify_unchanged "e21: reverify gen-500, nothing edited";
      bench_parse "e21: parse gen-500 (cold)" `Cold;
      bench_parse "e21: reparse gen-500, one body edited (warm)" `Edited;
      bench_parse "e21: reparse gen-500, unchanged (warm)" `Unchanged;
    ]

(* Sorted [(name, ns_per_run)] rows of one Bechamel pass. *)
let measure_once ~quota =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  List.sort compare !rows

(* Best-of-N over whole Bechamel passes. One OLS estimate is already a
   regression over many samples, but on a shared host a pass that
   lands on a noisy spell inflates every row it contains (2-3x swings
   on identical code). The per-row minimum across passes is the cost
   floor. *)
let measure ~passes ~quota =
  let best = Hashtbl.create 32 in
  for _ = 1 to passes do
    List.iter
      (fun (name, ns) ->
        match Hashtbl.find_opt best name with
        | Some prev when prev <= ns -> ()
        | _ -> Hashtbl.replace best name ns)
      (measure_once ~quota)
  done;
  List.sort compare (Hashtbl.fold (fun name ns acc -> (name, ns) :: acc) best [])

let () =
  let quick = Array.mem "--quick" Sys.argv in
  let rows = if quick then measure ~passes:1 ~quota:0.1 else measure ~passes:3 ~quota:0.5 in
  print_endline "Wall-clock microbenchmarks (Bechamel, monotonic clock):";
  print_endline "  (host-dependent; the cycle-model tables of `repro` are the paper comparison)";
  List.iter (fun (name, ns) -> Printf.printf "  %-45s %12.1f ns/run\n" name ns) rows
