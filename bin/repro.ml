(* The `repro` command-line tool: run any of the paper's experiments by
   id. `repro list` enumerates them; `repro run fig2 fig3` reproduces
   Figure 2 and Figure 3; `repro run --quick` runs everything fast. *)

open Cmdliner

let list_cmd =
  let doc = "List the available experiments (one per paper table/figure)." in
  let run () =
    List.iter
      (fun (e : Experiments.Registry.entry) ->
        Printf.printf "%-16s %s\n" e.Experiments.Registry.id e.Experiments.Registry.description)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run experiments (all of them when none is named)." in
  let ids =
    let doc = "Experiment ids (see $(b,repro list))." in
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let quick =
    let doc = "Reduced trial counts and sweep sizes (for quick runs / CI)." in
    Arg.(value & flag & info [ "quick"; "q" ] ~doc)
  in
  let run quick ids =
    let entries =
      match ids with
      | [] -> Ok Experiments.Registry.all
      | ids ->
        let missing = List.filter (fun id -> Experiments.Registry.find id = None) ids in
        if missing <> [] then
          Error (Printf.sprintf "unknown experiment(s): %s" (String.concat ", " missing))
        else
          Ok (List.filter_map Experiments.Registry.find ids)
    in
    match entries with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok entries ->
      List.iter
        (fun (e : Experiments.Registry.entry) ->
          Printf.printf "==== %s: %s ====\n" e.Experiments.Registry.id
            e.Experiments.Registry.description;
          (* Each experiment gets a clean slate in the global registry,
             so the table below is attributable to it alone. *)
          Telemetry.Registry.reset Telemetry.Registry.global;
          e.Experiments.Registry.run ~quick;
          print_newline ();
          Telemetry.Render.print ~title:(e.Experiments.Registry.id ^ " telemetry")
            Telemetry.Registry.global;
          print_newline ())
        entries
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ quick $ ids)

let stats_cmd =
  let doc =
    "Run experiments quickly and print only their telemetry tables — the registry snapshot \
     (counters, gauges, histogram quantiles) each experiment records."
  in
  let ids =
    let doc = "Experiment ids (see $(b,repro list)); all when omitted." in
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let run ids =
    let entries =
      match ids with
      | [] -> Ok Experiments.Registry.all
      | ids ->
        let missing = List.filter (fun id -> Experiments.Registry.find id = None) ids in
        if missing <> [] then
          Error (Printf.sprintf "unknown experiment(s): %s" (String.concat ", " missing))
        else
          Ok (List.filter_map Experiments.Registry.find ids)
    in
    match entries with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok entries ->
      (* Run each experiment quickly with its own tables silenced —
         only the telemetry snapshot is wanted here. *)
      let silently f =
        let devnull = open_out (if Sys.win32 then "NUL" else "/dev/null") in
        let saved = Unix.dup Unix.stdout in
        flush stdout;
        Unix.dup2 (Unix.descr_of_out_channel devnull) Unix.stdout;
        Fun.protect
          ~finally:(fun () ->
            flush stdout;
            Unix.dup2 saved Unix.stdout;
            Unix.close saved;
            close_out devnull)
          f
      in
      List.iter
        (fun (e : Experiments.Registry.entry) ->
          Telemetry.Registry.reset Telemetry.Registry.global;
          silently (fun () -> e.Experiments.Registry.run ~quick:true);
          Telemetry.Render.print ~title:(e.Experiments.Registry.id ^ " telemetry")
            Telemetry.Registry.global;
          print_newline ())
        entries
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ ids)

let scale_cmd =
  let doc =
    "Run the sharded multicore packet engine: RSS spreads a fixed set of receive queues over \
     N OCaml domains, each queue a complete shared-nothing replica. Wall-clock time falls \
     with shards; the merged telemetry table is byte-identical for any shard count."
  in
  let shards =
    let doc =
      "Shard (domain) counts to run, comma-separated. Defaults to 1,2,4,8 capped at the \
       host's recommended domain count; with $(b,--stats-only), to 1 alone, so the output \
       does not depend on the host."
    in
    Arg.(value & opt (some (list int)) None & info [ "shards"; "n" ] ~docv:"N,N,..." ~doc)
  in
  let rounds =
    let doc = "Scheduling rounds (each round draws one batch of global arrivals)." in
    Arg.(value & opt int Experiments.Scaling.default_rounds & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let batch =
    let doc = "Global arrivals per round." in
    Arg.(value & opt int 32 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let queues =
    let doc =
      "RSS receive queues. Fixed across shard counts — this is what makes the telemetry \
       shard-count-invariant; every shard count must divide the work of the same queues."
    in
    Arg.(value & opt int 8 & info [ "queues" ] ~docv:"N" ~doc)
  in
  let mode =
    let mode_conv =
      Arg.enum
        Netstack.Shard.
          [
            ("direct", Direct); ("isolated", Isolated); ("copying", Copying); ("tagged", Tagged);
          ]
    in
    let doc = "Restrict to one pipeline mode: direct, isolated, copying, or tagged." in
    Arg.(value & opt (some mode_conv) None & info [ "mode"; "m" ] ~docv:"MODE" ~doc)
  in
  let stats_only =
    let doc =
      "Print only the merged telemetry table of each run (no wall-clock anywhere in the \
       output), so runs with different shard counts can be diffed byte-for-byte."
    in
    Arg.(value & flag & info [ "stats-only" ] ~doc)
  in
  let run shards rounds batch queues mode stats_only =
    let shards_list =
      match shards with
      | Some l -> l
      | None -> if stats_only then [ 1 ] else Experiments.Scaling.default_shards_list ()
    in
    (* Surface bad sizes as clean CLI errors, not engine exceptions. *)
    (match
       List.find_opt (fun n -> n <= 0 || n > queues) shards_list
     with
    | Some n ->
      Printf.eprintf "repro scale: invalid shard count %d (need 1 <= shards <= queues = %d)\n"
        n queues;
      exit 1
    | None -> ());
    if rounds <= 0 || batch <= 0 || queues <= 0 then begin
      prerr_endline "repro scale: --rounds, --batch and --queues must be positive";
      exit 1
    end;
    if stats_only then
      let mode = Option.value mode ~default:Netstack.Shard.Direct in
      List.iter
        (fun n ->
          let _, r =
            Experiments.Scaling.run_one ~queues ~rounds ~batch_size:batch ~mode ~shards:n ()
          in
          (* Deliberately no shard count in the title: the whole point
             is that this block diffs clean across shard counts. *)
          Telemetry.Render.print
            ~title:(Printf.sprintf "scale telemetry (%s)" (Netstack.Shard.mode_name mode))
            r.Netstack.Shard.r_telemetry;
          print_newline ())
        shards_list
    else
      let modes = match mode with Some m -> [ m ] | None -> Experiments.Scaling.default_modes in
      Experiments.Scaling.print
        (Experiments.Scaling.run ~shards_list ~modes ~queues ~rounds ~batch_size:batch ())
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(const run $ shards $ rounds $ batch $ queues $ mode $ stats_only)

let storm_cmd =
  let doc =
    "Run the deterministic fault storm (E15): the sharded isolated engine under a seeded \
     fault plan, service gated by a supervisor applying the selected restart policy. Every \
     reported count is a pure function of the seeds and invariant across shard counts."
  in
  let policy_conv =
    Arg.enum
      [
        ("restart", Faultinj.Restart.Immediate);
        ("backoff", List.nth Experiments.Storm.default_policies 1);
        ("breaker", List.nth Experiments.Storm.default_policies 2);
        ("degrade", Faultinj.Restart.Degrade);
      ]
  in
  let policy =
    let doc = "Restrict to one restart policy: restart, backoff, breaker, or degrade." in
    Arg.(value & opt (some policy_conv) None & info [ "policy"; "p" ] ~docv:"POLICY" ~doc)
  in
  let shards =
    let doc = "Shard (domain) count the queues are spread over." in
    Arg.(value & opt int 1 & info [ "shards"; "n" ] ~docv:"N" ~doc)
  in
  let queues =
    let doc = "RSS receive queues (fixed as shards vary)." in
    Arg.(value & opt int 8 & info [ "queues" ] ~docv:"N" ~doc)
  in
  let rounds =
    let doc = "Scheduling rounds per queue." in
    Arg.(value & opt int Experiments.Storm.default_rounds & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let batch =
    let doc = "Global arrivals per round." in
    Arg.(value & opt int 16 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let rate =
    let doc = "Poisson fault rate per queue round, in [0, 1]." in
    Arg.(value & opt float Experiments.Storm.default_rate & info [ "rate" ] ~docv:"R" ~doc)
  in
  let seed =
    let doc = "Fault-plan seed (the traffic seed is fixed)." in
    Arg.(value & opt int64 4242L & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let stats_only =
    let doc =
      "Print only the merged telemetry table and the deterministic counters of each run (no \
       wall-clock anywhere), so runs — and shard counts — can be diffed byte-for-byte."
    in
    Arg.(value & flag & info [ "stats-only" ] ~doc)
  in
  let run policy shards queues rounds batch rate seed stats_only =
    if shards <= 0 || shards > queues then begin
      Printf.eprintf "repro storm: invalid shard count %d (need 1 <= shards <= queues = %d)\n"
        shards queues;
      exit 1
    end;
    if rounds <= 0 || batch <= 0 || queues <= 0 then begin
      prerr_endline "repro storm: --rounds, --batch and --queues must be positive";
      exit 1
    end;
    if rate < 0.0 || rate > 1.0 then begin
      prerr_endline "repro storm: --rate must be in [0, 1]";
      exit 1
    end;
    let policies =
      match policy with Some p -> [ p ] | None -> Experiments.Storm.default_policies
    in
    if stats_only then
      List.iter
        (fun policy ->
          let r, restores =
            Experiments.Storm.run_one ~queues ~rounds ~batch_size:batch ~rate
              ~fault_seed:seed ~shards ~policy ()
          in
          let name = Faultinj.Restart.policy_name policy in
          (* Deliberately no shard count anywhere: this block must diff
             clean across shard counts and across repeated runs. *)
          Printf.printf
            "storm counts (%s): crafted=%d served=%d degraded=%d dropped=%d injected=%d \
             restarts=%d restores=%d\n"
            name r.Netstack.Shard.r_crafted r.Netstack.Shard.r_served
            r.Netstack.Shard.r_degraded r.Netstack.Shard.r_dropped
            r.Netstack.Shard.r_injected r.Netstack.Shard.r_restarts restores;
          Telemetry.Render.print
            ~title:(Printf.sprintf "storm telemetry (%s)" name)
            r.Netstack.Shard.r_telemetry;
          print_newline ())
        policies
    else
      Experiments.Storm.print
        (Experiments.Storm.run ~policies ~queues ~rounds ~batch_size:batch ~rate
           ~fault_seed:seed ~shards ())
  in
  Cmd.v (Cmd.info "storm" ~doc)
    Term.(const run $ policy $ shards $ queues $ rounds $ batch $ rate $ seed $ stats_only)

let ckpt_incr_cmd =
  let doc =
    "Run the incremental-checkpoint experiment (E16): the fig3 firewall database under a \
     dirty tracker, swept over dirty ratio x {serial, parallel} shadow sync, with restore \
     byte-identity checked against the render at the sync point."
  in
  let dirty =
    let doc = "Dirty ratios to sweep, in percent, comma-separated." in
    Arg.(
      value
      & opt (list int) Experiments.Ckpt_incr.default_dirty_pcts
      & info [ "dirty"; "d" ] ~docv:"PCT,PCT,..." ~doc)
  in
  let iters =
    let doc = "Measured sync rounds per variant." in
    Arg.(value & opt int 30 & info [ "iters" ] ~docv:"N" ~doc)
  in
  let full_iters =
    let doc = "Full-traversal baseline checkpoints to average." in
    Arg.(value & opt int 12 & info [ "full-iters" ] ~docv:"N" ~doc)
  in
  let stats_only =
    let doc =
      "Print only the deterministic columns (dirty/reused node counts, ratio gauge, restore \
       byte-identity, sharing) — no wall-clock anywhere — so runs can be diffed \
       byte-for-byte against test/golden/ckpt_incr_stats.txt."
    in
    Arg.(value & flag & info [ "stats-only" ] ~doc)
  in
  let run dirty iters full_iters stats_only =
    (match List.find_opt (fun p -> p < 0 || p > 100) dirty with
    | Some p ->
      Printf.eprintf "repro ckpt-incr: invalid dirty ratio %d (need 0 <= pct <= 100)\n" p;
      exit 1
    | None -> ());
    if iters <= 0 || full_iters <= 0 then begin
      prerr_endline "repro ckpt-incr: --iters and --full-iters must be positive";
      exit 1
    end;
    if stats_only then
      (* Skip the wall-clock baseline entirely: the deterministic
         columns are a pure function of the database and the dirty
         sweep, which is what makes the golden diff meaningful. *)
      let _, rows =
        Experiments.Ckpt_incr.run ~dirty_pcts:dirty ~iters:(min iters 4) ~full_iters:1 ()
      in
      Experiments.Ckpt_incr.print_stats rows
    else
      Experiments.Ckpt_incr.print
        (Experiments.Ckpt_incr.run ~dirty_pcts:dirty ~iters ~full_iters ())
  in
  Cmd.v (Cmd.info "ckpt-incr" ~doc)
    Term.(const run $ dirty $ iters $ full_iters $ stats_only)

let flowcache_cmd =
  let doc =
    "Run the megaflow flow-cache experiment (E17): the sharded engine over a heavy-tailed \
     Zipf flow mix, cached vs uncached, with the cached/uncached serve/drop ledgers checked \
     for exact agreement. The full run appends the wall-clock hit-rate-vs-Mpps table."
  in
  let shards =
    let doc = "Shard (domain) count the queues are spread over." in
    Arg.(value & opt int 1 & info [ "shards"; "n" ] ~docv:"N" ~doc)
  in
  let queues =
    let doc = "RSS receive queues (fixed as shards vary)." in
    Arg.(value & opt int Experiments.Megaflow.default_stats_queues & info [ "queues" ] ~docv:"N" ~doc)
  in
  let rounds =
    let doc = "Scheduling rounds per queue." in
    Arg.(value & opt int Experiments.Megaflow.default_stats_rounds & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let batch =
    let doc = "Global arrivals per round." in
    Arg.(value & opt int 32 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let flows =
    let doc = "Zipf flow population of the deterministic section." in
    Arg.(value & opt int Experiments.Megaflow.default_stats_flows & info [ "flows" ] ~docv:"N" ~doc)
  in
  let exponent =
    let doc = "Zipf exponent s." in
    Arg.(value & opt float Experiments.Megaflow.default_exponent & info [ "exponent"; "s" ] ~docv:"S" ~doc)
  in
  let capacity =
    let doc = "Flow-cache entries per queue (deterministic section)." in
    Arg.(value & opt int Experiments.Megaflow.default_stats_capacity & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let stats_only =
    let doc =
      "Print only the deterministic counters and merged telemetry of the cached and uncached \
       runs (no wall-clock anywhere, no shard count), so runs with different shard counts — \
       and the golden test/golden/flowcache_stats.txt — diff byte-for-byte."
    in
    Arg.(value & flag & info [ "stats-only" ] ~doc)
  in
  let run shards queues rounds batch flows exponent capacity stats_only =
    if shards <= 0 || shards > queues then begin
      Printf.eprintf
        "repro flowcache: invalid shard count %d (need 1 <= shards <= queues = %d)\n" shards
        queues;
      exit 1
    end;
    if rounds <= 0 || batch <= 0 || queues <= 0 || flows <= 0 || capacity <= 0 then begin
      prerr_endline
        "repro flowcache: --rounds, --batch, --queues, --flows and --capacity must be positive";
      exit 1
    end;
    if exponent <= 0.0 then begin
      prerr_endline "repro flowcache: --exponent must be positive";
      exit 1
    end;
    let pair =
      Experiments.Megaflow.run_stats_pair ~queues ~rounds ~batch_size:batch ~flows ~exponent
        ~capacity ~shards ()
    in
    (* Deliberately no shard count and no wall clock anywhere in this
       block: it must diff clean across shard counts. *)
    Experiments.Megaflow.print_stats_pair pair;
    if not stats_only then begin
      print_newline ();
      Experiments.Megaflow.print_wall (Experiments.Megaflow.run_wall ())
    end
  in
  Cmd.v (Cmd.info "flowcache" ~doc)
    Term.(const run $ shards $ queues $ rounds $ batch $ flows $ exponent $ capacity $ stats_only)

let fusion_cmd =
  let doc =
    "Run the kernel-fusion ablation (E18): fused vs unfused pipelines over the Maglev NF in \
     every mode (cycle identity in the calls modes, crossing reduction under Isolated), then \
     the wall-clock fused/unfused race."
  in
  let rounds =
    let doc = "Batches per deterministic run." in
    Arg.(
      value
      & opt int Experiments.Fusion_ablation.default_rounds
      & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let batch =
    let doc = "Packets per batch (deterministic section)." in
    Arg.(
      value
      & opt int Experiments.Fusion_ablation.default_batch_size
      & info [ "batch" ] ~docv:"N" ~doc)
  in
  let shards =
    let doc = "Shard (domain) count for the sharded fused-NF block." in
    Arg.(value & opt int 1 & info [ "shards"; "n" ] ~docv:"N" ~doc)
  in
  let stats_only =
    let doc =
      "Print only the deterministic sections (virtual counters, fusion plans, crossing \
       counts, the sharded fused-NF ledger — no wall-clock anywhere, no shard count), so \
       runs with different shard counts — and the golden test/golden/fusion_stats.txt — \
       diff byte-for-byte."
    in
    Arg.(value & flag & info [ "stats-only" ] ~doc)
  in
  let run rounds batch shards stats_only =
    if rounds <= 0 || batch <= 0 then begin
      prerr_endline "repro fusion: --rounds and --batch must be positive";
      exit 1
    end;
    if shards <= 0 || shards > 4 then begin
      Printf.eprintf "repro fusion: invalid shard count %d (need 1 <= shards <= queues = 4)\n"
        shards;
      exit 1
    end;
    let stats = Experiments.Fusion_ablation.run_stats ~rounds ~batch_size:batch () in
    Experiments.Fusion_ablation.print_stats stats;
    print_newline ();
    Experiments.Fusion_ablation.print_shard_stats
      (Experiments.Fusion_ablation.run_shard_stats ~rounds ~batch_size:batch ~shards ());
    if not stats_only then begin
      print_newline ();
      Experiments.Fusion_ablation.print_wall (Experiments.Fusion_ablation.run_wall ())
    end
  in
  Cmd.v (Cmd.info "fusion" ~doc) Term.(const run $ rounds $ batch $ shards $ stats_only)

let recover_cmd =
  let doc =
    "Run the durable crash-restart recovery experiment (E19): the storm's stateful flowtab \
     stage persisted through the versioned checkpoint store, crashed mid-storm and \
     cold-started from the newest valid checkpoint, plus the committed corpus of corrupt / \
     truncated / wrong-version checkpoints (each rejected deterministically before step 0). \
     The full run appends the wall-clock recovery-vs-rebuild measurement."
  in
  let shards =
    let doc = "Shard (domain) count the queues are spread over." in
    Arg.(value & opt int 1 & info [ "shards"; "n" ] ~docv:"N" ~doc)
  in
  let queues =
    let doc = "RSS receive queues (fixed as shards vary)." in
    Arg.(value & opt int Experiments.Recover.default_queues & info [ "queues" ] ~docv:"N" ~doc)
  in
  let rounds =
    let doc = "Scheduling rounds per queue." in
    Arg.(value & opt int Experiments.Recover.default_rounds & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let batch =
    let doc = "Global arrivals per round." in
    Arg.(value & opt int 16 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let rate =
    let doc = "Poisson fault rate per queue round, in [0, 1]." in
    Arg.(value & opt float Experiments.Recover.default_rate & info [ "rate" ] ~docv:"R" ~doc)
  in
  let seed =
    let doc = "Fault-plan seed (the traffic seed is fixed)." in
    Arg.(value & opt int64 4242L & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let corpus =
    let doc = "Directory of the committed bad-checkpoint corpus." in
    Arg.(
      value
      & opt string Experiments.Recover.default_corpus
      & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let stats_only =
    let doc =
      "Print only the deterministic sections (storm counts, per-queue cold-start outcomes, \
       corpus rejections, telemetry — no wall-clock, no shard count, no path anywhere), so \
       runs with different shard counts — and the golden test/golden/recover_stats.txt — \
       diff byte-for-byte."
    in
    Arg.(value & flag & info [ "stats-only" ] ~doc)
  in
  let run shards queues rounds batch rate seed corpus stats_only =
    if shards <= 0 || shards > queues then begin
      Printf.eprintf
        "repro recover: invalid shard count %d (need 1 <= shards <= queues = %d)\n" shards
        queues;
      exit 1
    end;
    if rounds <= 0 || batch <= 0 || queues <= 0 then begin
      prerr_endline "repro recover: --rounds, --batch and --queues must be positive";
      exit 1
    end;
    if rate < 0.0 || rate > 1.0 then begin
      prerr_endline "repro recover: --rate must be in [0, 1]";
      exit 1
    end;
    Experiments.Recover.print_stats
      (Experiments.Recover.run_stats ~queues ~rounds ~batch_size:batch ~rate ~fault_seed:seed
         ~shards ());
    print_newline ();
    Experiments.Recover.run_corpus ~dir:corpus ();
    if not stats_only then begin
      print_newline ();
      Experiments.Recover.print_wall (Experiments.Recover.run_wall ())
    end
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(const run $ shards $ queues $ rounds $ batch $ rate $ seed $ corpus $ stats_only)

let soa_cmd =
  let doc =
    "Run the structure-of-arrays header plane ablation (E20): the plain Maglev NF in \
     {bytes, soa} x {unfused, fused} arms (cycle/output/telemetry identity plus a \
     materialized-frames byte audit), the sharded fused-NF ledger, then the wall-clock 2x2 \
     race with the direct soa fused >= 1.2 Mpps gate."
  in
  let rounds =
    let doc = "Batches per deterministic run." in
    Arg.(
      value
      & opt int Experiments.Soa_ablation.default_rounds
      & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let batch =
    let doc = "Packets per batch (deterministic section)." in
    Arg.(
      value
      & opt int Experiments.Soa_ablation.default_batch_size
      & info [ "batch" ] ~docv:"N" ~doc)
  in
  let shards =
    let doc = "Shard (domain) count for the sharded fused-NF block." in
    Arg.(value & opt int 1 & info [ "shards"; "n" ] ~docv:"N" ~doc)
  in
  let stats_only =
    let doc =
      "Print only the deterministic sections (virtual counters, identity lines, the frames \
       audit, the sharded ledger — no wall-clock anywhere, no shard count), so runs with \
       different shard counts — and the golden test/golden/soa_stats.txt — diff \
       byte-for-byte."
    in
    Arg.(value & flag & info [ "stats-only" ] ~doc)
  in
  let run rounds batch shards stats_only =
    if rounds <= 0 || batch <= 0 then begin
      prerr_endline "repro soa: --rounds and --batch must be positive";
      exit 1
    end;
    if shards <= 0 || shards > 4 then begin
      Printf.eprintf "repro soa: invalid shard count %d (need 1 <= shards <= queues = 4)\n"
        shards;
      exit 1
    end;
    let stats = Experiments.Soa_ablation.run_stats ~rounds ~batch_size:batch () in
    Experiments.Soa_ablation.print_stats stats;
    print_newline ();
    Experiments.Soa_ablation.print_shard_stats
      (Experiments.Soa_ablation.run_shard_stats ~rounds ~batch_size:batch ~shards ());
    if not stats_only then begin
      print_newline ();
      Experiments.Soa_ablation.print_wall (Experiments.Soa_ablation.run_wall ())
    end
  in
  Cmd.v (Cmd.info "soa" ~doc) Term.(const run $ rounds $ batch $ shards $ stats_only)

let reverify_cmd =
  let doc =
    "Run the incremental summary-cached IFC reverification experiment (E21): generate an \
     N-function Safe-dialect program, verify it cold through a persistent summary cache, \
     then edit ~1% of the function bodies per round and reverify — only the dirty cone \
     (edited functions + transitive callers) is recomputed, with reports byte-identical to \
     a from-scratch compositional run."
  in
  let funcs =
    let doc = "Functions in the generated program." in
    Arg.(value & opt int Experiments.Reverify.default_funcs & info [ "funcs" ] ~docv:"N" ~doc)
  in
  let depth =
    let doc = "Call-chain depth (bounds every dirty cone)." in
    Arg.(value & opt int Experiments.Reverify.default_depth & info [ "depth" ] ~docv:"N" ~doc)
  in
  let edits =
    let doc = "Function bodies edited per round (default: 1% of --funcs)." in
    Arg.(value & opt (some int) None & info [ "edits" ] ~docv:"N" ~doc)
  in
  let iters =
    let doc = "Edit+reverify rounds." in
    Arg.(value & opt int Experiments.Reverify.default_iters & info [ "iters" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "Program-generator seed (edit seeds derive from it)." in
    Arg.(value & opt int64 Experiments.Reverify.default_seed & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let stats_only =
    let doc =
      "Print only the deterministic section (generated-program shape, hit/miss/recompute \
       counts, transfer speedups, equivalence and dirty-cone checks, telemetry — no \
       wall-clock anywhere), so repeated runs — and the golden \
       test/golden/reverify_stats.txt — diff byte-for-byte."
    in
    Arg.(value & flag & info [ "stats-only" ] ~doc)
  in
  let run funcs depth edits iters seed stats_only =
    if funcs <= 0 || depth <= 0 || iters < 0 then begin
      prerr_endline "repro reverify: --funcs and --depth must be positive, --iters >= 0";
      exit 1
    end;
    let edits = match edits with Some e -> e | None -> max 1 (funcs / 100) in
    if edits < 0 || edits > funcs then begin
      prerr_endline "repro reverify: --edits must be in [0, funcs]";
      exit 1
    end;
    Experiments.Reverify.print_stats
      (Experiments.Reverify.run_stats ~funcs ~depth ~edits ~iters ~seed ());
    if not stats_only then begin
      print_newline ();
      Experiments.Reverify.print_wall
        (Experiments.Reverify.run_wall ~funcs ~depth ~edits ~seed ())
    end
  in
  Cmd.v (Cmd.info "reverify" ~doc)
    Term.(const run $ funcs $ depth $ edits $ iters $ seed $ stats_only)

let verify_cmd =
  let doc =
    "Parse a Mir source file (see examples/programs/*.mir) and verify it: linearity \
     (ownership) checking plus information-flow analysis, with the strategy chosen by the \
     program's dialect unless overridden."
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Mir source file.")
  in
  let strategy =
    let strategy_conv =
      Arg.enum
        [
          ("exact", Ifc.Verifier.Exact);
          ("compositional", Ifc.Verifier.Compositional);
          ("incremental", Ifc.Verifier.Incremental);
          ("naive", Ifc.Verifier.Naive_no_alias);
          ("andersen", Ifc.Verifier.Andersen);
        ]
    in
    Arg.(
      value
      & opt (some strategy_conv) None
      & info [ "strategy"; "s" ] ~docv:"STRATEGY"
          ~doc:"Analysis strategy: exact, compositional, incremental, naive, or andersen.")
  in
  let execute =
    Arg.(
      value & flag
      & info [ "execute"; "x" ]
          ~doc:"Also run the program and report the dynamic events/leaks (ground truth).")
  in
  let run strategy execute file =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Ifc.Parse.program source with
    | Error e ->
      Printf.eprintf "%s: %s\n" file (Ifc.Parse.error_to_string e);
      exit 2
    | Ok program -> (
      match Ifc.Verifier.verify ?strategy program with
      | Error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 2
      | Ok report ->
        Format.printf "%s:@.%a@." file Ifc.Verifier.pp_report report;
        if execute then begin
          match Ifc.Interp.run program with
          | outcome ->
            Printf.printf "dynamic: %d output event(s), %d leak(s)\n"
              (List.length outcome.Ifc.Interp.events)
              (List.length outcome.Ifc.Interp.leaks);
            List.iter
              (fun (leak : Ifc.Interp.event) ->
                Printf.printf "  LEAK at line %d on `%s': taint %s\n" leak.Ifc.Interp.eline
                  leak.Ifc.Interp.channel
                  (Ifc.Label.to_string (Ifc.Interp.event_taint leak)))
              outcome.Ifc.Interp.leaks
          | exception Ifc.Interp.Runtime_error { line; message } ->
            Printf.printf "dynamic: trapped at line %d: %s\n" line message
        end;
        (match report.Ifc.Verifier.verdict with
        | Ifc.Verifier.Verified -> exit 0
        | Ifc.Verifier.Rejected -> exit 1))
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ strategy $ execute $ file)

let () =
  let doc =
    "Reproduce the evaluation of 'System Programming in Rust: Beyond Safety' (HotOS '17)"
  in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            stats_cmd;
            scale_cmd;
            storm_cmd;
            ckpt_incr_cmd;
            flowcache_cmd;
            fusion_cmd;
            recover_cmd;
            soa_cmd;
            reverify_cmd;
            verify_cmd;
          ]))
