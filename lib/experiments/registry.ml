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
  det : det;
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

let recover_stats ~shards =
  Recover.print_stats (Recover.run_stats ~shards ());
  print_newline ();
  Recover.run_corpus ()

let reverify_stats ~shards:_ = Reverify.print_stats (Reverify.run_stats ())

let det ?golden ?(queues = 4) ?(shards = [ 1; 2; 4 ]) ?(replay = false) ?(require = [])
    ?(forbid = []) cells =
  { cells; queues; golden; shards; replay; require; forbid }

(* An entry's golden is named after its id. *)
let golden id =
  "test/golden/" ^ String.map (function '-' -> '_' | c -> c) id ^ "_stats.txt"

(* A virtual-clock-only experiment has one configuration: [repro <id>],
   [--quick] and [--stats-only] all print [print ()], which is exactly
   its golden. *)
let virtual_clock id description print =
  {
    id;
    description;
    det = det ~queues:1 ~shards:[ 1 ] ~golden:(golden id) [ ("stats", fun ~shards:_ -> print ()) ];
    run = (fun ~quick:_ -> print ());
  }

let all =
  [
    virtual_clock "fig2" "E1/E10: Figure 2 - isolation overhead vs Maglev, by batch size"
      (fun () -> Fig2.print (Fig2.run ()));
    virtual_clock "pipeline-length" "E2: overhead independence of pipeline length" (fun () ->
        Pipeline_length.print (Pipeline_length.run ()));
    virtual_clock "recovery" "E3: fault-recovery cost (paper: 4389 cycles)" (fun () ->
        Recovery.print (Recovery.run ()));
    virtual_clock "sfi-baselines" "E4: copying / tagged-heap / linear SFI comparison" (fun () ->
        Sfi_baselines.print (Sfi_baselines.run ()));
    virtual_clock "ifc-matrix" "E5: Buffer-listing detection matrix (lines 16/17)" (fun () ->
        Ifc_matrix.print (Ifc_matrix.run ()));
    virtual_clock "ifc-store" "E6: secure-store verification + sectype copy cost" (fun () ->
        Ifc_store.print (Ifc_store.run ()));
    virtual_clock "ifc-scaling" "E7: verification cost scaling / compositional summaries"
      (fun () -> Ifc_scaling.print (Ifc_scaling.run ()));
    virtual_clock "fig3" "E8: Figure 3 - checkpointing the firewall rule DB" (fun () ->
        Fig3.print (Fig3.run ()));
    virtual_clock "ckpt-cost" "E9: checkpoint work vs DB size and sharing" (fun () ->
        Ckpt_cost.print (Ckpt_cost.run ()));
    virtual_clock "rollback" "E13 (extension): middlebox rollback-recovery (ckpt + replay)"
      (fun () -> Rollback.print (Rollback.run ()));
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
        det ~queues:1 ~shards:[ 1 ] ~golden:(golden "ckpt-incr") [ ("stats", ckpt_incr_stats) ];
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
    (let e =
       virtual_clock "fusion" "E18 (extension): kernel fusion ablation (Isolated crossings)"
         (fun () -> Fusion_ablation.print_stats (Fusion_ablation.run_stats ()))
     in
     (* Every identity line it prints must hold. *)
     { e with det = { e.det with forbid = [ "identical=false\\|identical .*=false" ] } });
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
    virtual_clock "ablations" "A1-A3: design-choice ablations" (fun () ->
        Ablations.print (Ablations.run ()));
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all
