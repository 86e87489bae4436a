type det = {
  cells : (string * (shards:int -> unit)) list;
  queues : int;
  golden : string option;
  shards : int list;
  replay : bool;
  require : string list;
  forbid : string list;
}

type entry = {
  id : string;
  description : string;
  run : quick:bool -> unit;
  det : det option;
}

(* --- Deterministic surfaces ([repro <id> --stats-only], [repro check]) --- *)

(* No shard count and no wall clock in any printer below: each block
   must diff clean across shard counts, across repeated runs and
   against its golden. *)

let scale_stats mode ~shards =
  let _, r = Scaling.run_one ~mode ~shards () in
  Telemetry.Render.print
    ~title:(Printf.sprintf "scale telemetry (%s)" (Netstack.Shard.mode_name mode))
    r.Netstack.Shard.r_telemetry;
  print_newline ()

let storm_stats ~shards =
  List.iter
    (fun policy ->
      let r, restores = Storm.run_one ~shards ~policy () in
      let name = Faultinj.Restart.policy_name policy in
      Printf.printf
        "storm counts (%s): crafted=%d served=%d degraded=%d dropped=%d injected=%d \
         restarts=%d restores=%d\n"
        name r.Netstack.Shard.r_crafted r.Netstack.Shard.r_served r.Netstack.Shard.r_degraded
        r.Netstack.Shard.r_dropped r.Netstack.Shard.r_injected r.Netstack.Shard.r_restarts
        restores;
      Telemetry.Render.print
        ~title:(Printf.sprintf "storm telemetry (%s)" name)
        r.Netstack.Shard.r_telemetry;
      print_newline ())
    Storm.default_policies

(* Skips the wall-clock baseline entirely: the deterministic columns
   are a pure function of the database and the dirty sweep. *)
let ckpt_incr_stats ~shards:_ =
  let _, rows = Ckpt_incr.run ~iters:4 ~full_iters:1 () in
  Ckpt_incr.print_stats rows

let flowcache_stats ~shards = Megaflow.print_stats_pair (Megaflow.run_stats_pair ~shards ())

(* The virtual-clock-only experiments, at their library defaults: the
   golden is exactly the full run's output. *)
let fig2_stats ~shards:_ = Fig2.print (Fig2.run ())
let pipeline_length_stats ~shards:_ = Pipeline_length.print (Pipeline_length.run ())
let ablations_stats ~shards:_ = Ablations.print (Ablations.run ())

let fusion_stats ~shards:_ = Fusion_ablation.print_stats (Fusion_ablation.run_stats ())

let recover_stats ~shards =
  Recover.print_stats (Recover.run_stats ~shards ());
  print_newline ();
  Recover.run_corpus ()

let reverify_stats ~shards:_ = Reverify.print_stats (Reverify.run_stats ())

let det ?golden ?(queues = 4) ?(shards = [ 1; 2; 4 ]) ?(replay = false) ?(require = [])
    ?(forbid = []) cells =
  Some { cells; queues; golden; shards; replay; require; forbid }

let golden name = "test/golden/" ^ name ^ "_stats.txt"

(* Every printed identity line must hold. *)
let identities = [ "identical=false\\|identical .*=false" ]

let all =
  [
    {
      id = "fig2";
      description = "E1/E10: Figure 2 - isolation overhead vs Maglev, by batch size";
      det = det ~queues:1 ~shards:[ 1 ] ~golden:(golden "fig2") [ ("stats", fig2_stats) ];
      run =
        (fun ~quick ->
          let trials = if quick then 30 else 100 in
          let batches = if quick then [ 1; 16; 256 ] else Fig2.default_batches in
          Fig2.print (Fig2.run ~batches ~trials ()));
    };
    {
      id = "pipeline-length";
      description = "E2: overhead independence of pipeline length";
      det =
        det ~queues:1 ~shards:[ 1 ] ~golden:(golden "pipeline_length")
          [ ("stats", pipeline_length_stats) ];
      run =
        (fun ~quick ->
          let trials = if quick then 30 else 100 in
          Pipeline_length.print (Pipeline_length.run ~trials ()));
    };
    {
      id = "recovery";
      description = "E3: fault-recovery cost (paper: 4389 cycles)";
      det = None;
      run =
        (fun ~quick ->
          let trials = if quick then 100 else 1000 in
          Recovery.print (Recovery.run ~trials ()));
    };
    {
      id = "sfi-baselines";
      description = "E4: copying / tagged-heap / linear SFI comparison";
      det = None;
      run =
        (fun ~quick ->
          let trials = if quick then 30 else 100 in
          Sfi_baselines.print (Sfi_baselines.run ~trials ()));
    };
    {
      id = "ifc-matrix";
      description = "E5: Buffer-listing detection matrix (lines 16/17)";
      det = None;
      run = (fun ~quick:_ -> Ifc_matrix.print (Ifc_matrix.run ()));
    };
    {
      id = "ifc-store";
      description = "E6: secure-store verification + sectype copy cost";
      det = None;
      run = (fun ~quick:_ -> Ifc_store.print (Ifc_store.run ()));
    };
    {
      id = "ifc-scaling";
      description = "E7: verification cost scaling / compositional summaries";
      det = None;
      run =
        (fun ~quick ->
          let client_counts = if quick then [ 2; 8 ] else [ 2; 4; 8; 16; 32 ] in
          Ifc_scaling.print (Ifc_scaling.run ~client_counts ()));
    };
    {
      id = "fig3";
      description = "E8: Figure 3 - checkpointing the firewall rule DB";
      det = None;
      run = (fun ~quick:_ -> Fig3.print (Fig3.run ()));
    };
    {
      id = "ckpt-cost";
      description = "E9: checkpoint work vs DB size and sharing";
      det = None;
      run =
        (fun ~quick ->
          let sizes = if quick then [ (100, 2); (100, 4) ] else Ckpt_cost.default_sizes in
          Ckpt_cost.print (Ckpt_cost.run ~sizes ()));
    };
    {
      id = "rollback";
      description = "E13 (extension): middlebox rollback-recovery (ckpt + replay)";
      det = None;
      run =
        (fun ~quick ->
          let inputs = if quick then 517 else 2021 in
          Rollback.print (Rollback.run ~inputs ()));
    };
    {
      id = "scale";
      description = "E14 (extension): sharded engine - scaling vs shard count, fixed queues";
      det =
        det ~queues:Scaling.default_queues ~golden:(golden "scale")
          [
            ("direct", scale_stats Netstack.Shard.Direct);
            ("isolated", scale_stats Netstack.Shard.Isolated);
          ];
      run =
        (fun ~quick ->
          let rounds = if quick then 300 else Scaling.default_rounds in
          let modes =
            if quick then Netstack.Shard.[ Direct; Isolated ] else Scaling.default_modes
          in
          Scaling.print (Scaling.run ~modes ~rounds ()));
    };
    {
      id = "storm";
      description = "E15 (extension): deterministic fault storm vs restart policy";
      det = det ~queues:Storm.default_queues ~replay:true [ ("stats", storm_stats) ];
      run =
        (fun ~quick ->
          let rounds = if quick then 150 else Storm.default_rounds in
          Storm.print (Storm.run ~rounds ()));
    };
    {
      id = "ckpt-incr";
      description = "E16 (extension): incremental dirty-tracking checkpoints";
      det =
        det ~queues:1 ~shards:[ 1 ] ~golden:(golden "ckpt_incr") [ ("stats", ckpt_incr_stats) ];
      run =
        (fun ~quick ->
          let iters = if quick then 8 else 30 in
          let full_iters = if quick then 4 else 12 in
          Ckpt_incr.print (Ckpt_incr.run ~iters ~full_iters ()));
    };
    {
      id = "flowcache";
      description = "E17 (extension): megaflow flow-cache fast path - hit rate vs Mpps";
      det =
        det ~queues:Megaflow.default_stats_queues ~golden:(golden "flowcache")
          ~require:[ "flowcache ledger match (cached vs uncached): true" ]
          [ ("stats", flowcache_stats) ];
      run = (fun ~quick -> Megaflow.print (Megaflow.run ~quick ()));
    };
    {
      id = "fusion";
      description = "E18 (extension): kernel fusion ablation (Isolated crossings)";
      det =
        det ~queues:1 ~shards:[ 1 ] ~golden:(golden "fusion") ~forbid:identities
          [ ("stats", fusion_stats) ];
      run = (fun ~quick:_ -> fusion_stats ~shards:1);
    };
    {
      id = "recover";
      description = "E19 (extension): durable crash-restart recovery vs full rebuild";
      det =
        det ~queues:Recover.default_queues ~replay:true ~golden:(golden "recover")
          [ ("stats", recover_stats) ];
      run =
        (fun ~quick ->
          Recover.print_stats
            (Recover.run_stats ~rounds:(if quick then 120 else Recover.default_rounds) ());
          print_newline ();
          Recover.run_corpus ();
          print_newline ();
          if quick then
            Recover.print_wall
              (Recover.run_wall ~buckets:(1 lsl 16) ~total:4_000_000
                 ~persist_every:500_000 ())
          else Recover.print_wall (Recover.run_wall ()));
    };
    {
      id = "reverify";
      description = "E21 (extension): incremental summary-cached IFC reverification";
      det =
        det ~queues:1 ~shards:[ 1 ] ~replay:true ~golden:(golden "reverify")
          ~forbid:[ "cold-equal *no\\|\\[MISS\\]" ]
          [ ("stats", reverify_stats) ];
      run =
        (fun ~quick ->
          let funcs = if quick then 200 else Reverify.default_funcs in
          let iters = if quick then 2 else Reverify.default_iters in
          let edits = max 1 (funcs / 100) in
          Reverify.print_stats (Reverify.run_stats ~funcs ~edits ~iters ());
          print_newline ();
          Reverify.print_wall (Reverify.run_wall ~funcs ~edits ()));
    };
    {
      id = "ablations";
      description = "A1-A3: design-choice ablations";
      det = det ~queues:1 ~shards:[ 1 ] ~golden:(golden "ablations") [ ("stats", ablations_stats) ];
      run =
        (fun ~quick ->
          let trials = if quick then 100 else 1000 in
          Ablations.print (Ablations.run ~trials ()));
    };
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all
