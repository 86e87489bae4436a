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

(* The fast-path variant: first call validates in full and fingerprints
   the table epoch / caller / generation / policy; later calls skip the
   descriptor touch and policy evaluation but still run the weak
   upgrade, so revocation semantics are unchanged. *)
let bench_rref_invoke_cached =
  let rref = make_counter_rref () in
  Test.make ~name:"fig2: rref invoke (cached)"
    (Staged.stage (fun () ->
         match Sfi.Rref.invoke_cached rref (fun c -> incr c) with
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
  let step = Experiments.Ckpt_incr.bench_incr ~mode:Chkpt.Incr.Serial ~dirty_pct in
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

let tests =
  Test.make_grouped ~name:"beyond-safety" ~fmt:"%s %s"
    [
      bench_direct_call;
      bench_rref_invoke;
      bench_rref_invoke_cached;
      bench_recovery;
      bench_pipeline "e4: maglev NF batch, direct" (fun _ -> Netstack.Pipeline.Direct);
      bench_pipeline "e4: maglev NF batch, isolated" (fun env ->
          Netstack.Pipeline.Isolated env.Experiments.Env.manager);
      bench_maglev_lookup;
      bench_rss_steer;
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
