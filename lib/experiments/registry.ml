type det = {
  print : shards:int -> unit;
  queues : int;
  shards : int list;
  replay : bool;
  require : string list;
  forbid : string list;
}

type entry = {
  id : string;
  description : string;
  det : det;
  wall : (unit -> unit) option;
}

let golden id =
  "test/golden/" ^ String.map (function '-' -> '_' | c -> c) id ^ "_stats.txt"

let det ?(queues = 4) ?(shards = [ 1; 2; 4 ]) ?(replay = false) ?(require = [])
    ?(forbid = []) print =
  { print; queues; shards; replay; require; forbid }

(* A virtual-clock-only experiment: one shard, no wall section. Each
   run records into a registry of its own, whose table ends the
   golden. *)
let virtual_clock id description print =
  let print ~shards:_ =
    let telemetry = Telemetry.Registry.create () in
    print telemetry;
    print_newline ();
    Telemetry.Render.print ~title:(id ^ " telemetry") telemetry
  in
  { id; description; det = det ~queues:1 ~shards:[ 1 ] print; wall = None }

let all =
  [
    virtual_clock "fig2" "E1/E10: Figure 2 - isolation overhead vs Maglev, by batch size"
      (fun telemetry -> Fig2.print (Fig2.run ~telemetry));
    virtual_clock "pipeline-length" "E2: overhead independence of pipeline length" (fun telemetry ->
        Pipeline_length.print (Pipeline_length.run ~telemetry));
    virtual_clock "recovery" "E3: fault-recovery cost (paper: 4389 cycles)" (fun telemetry ->
        Recovery.print (Recovery.run ~telemetry));
    virtual_clock "sfi-baselines" "E4: copying / tagged-heap / linear SFI comparison"
      (fun telemetry -> Sfi_baselines.print (Sfi_baselines.run ~telemetry));
    virtual_clock "ifc-matrix" "E5: Buffer-listing detection matrix (lines 16/17)" (fun _ ->
        Ifc_matrix.print (Ifc_matrix.run ()));
    virtual_clock "ifc-store" "E6: secure-store verification + sectype copy cost" (fun _ ->
        Ifc_store.print (Ifc_store.run ()));
    virtual_clock "ifc-scaling" "E7: verification cost scaling / compositional summaries"
      (fun _ -> Ifc_scaling.print (Ifc_scaling.run ()));
    virtual_clock "fig3" "E8: Figure 3 - checkpointing the firewall rule DB" (fun _ ->
        Fig3.print (Fig3.run ()));
    virtual_clock "ckpt-cost" "E9: checkpoint work vs DB size and sharing" (fun _ ->
        Ckpt_cost.print (Ckpt_cost.run ()));
    virtual_clock "rollback" "E13 (extension): middlebox rollback-recovery (ckpt + replay)"
      (fun telemetry -> Rollback.print (Rollback.run ~telemetry));
    {
      id = "scale";
      description = "E14 (extension): sharded engine - scaling vs shard count, fixed queues";
      det = det ~queues:Scaling.default_queues Scaling.print_stats;
      wall = Some (fun () -> Scaling.print (Scaling.run ()));
    };
    {
      id = "storm";
      description = "E15 (extension): deterministic fault storm vs restart policy";
      det = det ~queues:Storm.default_queues ~replay:true Storm.print;
      wall = None;
    };
    {
      id = "ckpt-incr";
      description = "E16 (extension): incremental dirty-tracking checkpoints";
      det =
        det ~queues:1 ~shards:[ 1 ] (fun ~shards:_ ->
            Ckpt_incr.print_stats (Ckpt_incr.run_stats ()));
      wall = Some (fun () -> Ckpt_incr.print_wall (Ckpt_incr.run_wall ()));
    };
    {
      id = "flowcache";
      description = "E17 (extension): megaflow flow-cache fast path - hit rate vs Mpps";
      det =
        det ~queues:Megaflow.default_stats_queues
          ~require:[ "flowcache ledger match (cached vs uncached): true" ]
          (fun ~shards -> Megaflow.print_stats_pair (Megaflow.run_stats_pair ~shards));
      wall = Some (fun () -> Megaflow.print_wall (Megaflow.run_wall ()));
    };
    (let e =
       virtual_clock "fusion" "E18 (extension): kernel fusion ablation (Isolated crossings)"
         (fun telemetry -> Fusion_ablation.print_stats (Fusion_ablation.run_stats ~telemetry))
     in
     (* Every identity line it prints must hold. *)
     { e with det = { e.det with forbid = [ "identical=false\\|identical .*=false" ] } });
    {
      id = "recover";
      description = "E19 (extension): durable crash-restart recovery vs full rebuild";
      det =
        det ~queues:Recover.default_queues ~replay:true (fun ~shards ->
            Recover.print_stats (Recover.run_stats ~shards);
            print_newline ();
            Recover.run_corpus ());
      wall = Some (fun () -> Recover.print_wall (Recover.run_wall ()));
    };
    {
      id = "reverify";
      description = "E21 (extension): incremental summary-cached IFC reverification";
      det =
        det ~queues:1 ~shards:[ 1 ] ~replay:true ~forbid:[ "cold-equal *no\\|\\[MISS\\]" ]
          (fun ~shards:_ -> Reverify.print_stats (Reverify.run_stats ()));
      wall = Some (fun () -> Reverify.print_wall (Reverify.run_wall ()));
    };
    virtual_clock "ablations" "A1-A3: design-choice ablations" (fun telemetry ->
        Ablations.print (Ablations.run ~telemetry));
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all
