let graph_version = 19
let corpus_graph = 7
let default_queues = 4
let default_corpus = "test/corpus"

(* Store directories live under a fresh private root in the system temp
   dir; nothing below ever prints a path, so the deterministic sections
   stay byte-identical across hosts and runs. *)
let temp_seq = ref 0

let rec fresh_temp_root () =
  incr temp_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bsck-recover-%d-%d" (Unix.getpid ()) !temp_seq)
  in
  if Sys.file_exists dir then fresh_temp_root ()
  else begin
    Sys.mkdir dir 0o755;
    dir
  end

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

type queue_recovery = {
  q_queue : int;
  q_outcome : (string, string) result;
  q_persists : int;
}

type stats = {
  s_result : Netstack.Shard.result;
  s_restores : int;
  s_units : queue_recovery list;
  s_supervisor : Faultinj.Supervisor.stats;
  s_recovery_telemetry : Telemetry.Registry.t;
}

let queue_dir root q = Filename.concat root (Printf.sprintf "q%d" q)

let run_stats ~shards =
  let root = fresh_temp_root () in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let flowtab (ctx : Netstack.Shard.queue_ctx) =
    let durable =
      Chkpt.Durable.open_store ~telemetry:ctx.Netstack.Shard.qc_registry
        ~graph:graph_version
        ~dir:(queue_dir root ctx.Netstack.Shard.qc_queue)
        ()
    in
    Netstack.Flowtab.create ~durable ctx
  in
  let r, restores, tabs =
    Storm.run_one ~queues:default_queues ~rounds:240 ~shards
      ~policy:Faultinj.Restart.Immediate ~flowtab ()
  in
  (* "Crash": everything since the last persist is lost. Rewinding the
     live tables to their last snapshot — which shares its cadence with
     the durable save — yields exactly the state recovery must
     reproduce, without reading disk. *)
  let expected =
    Array.map
      (fun ft ->
        Netstack.Flowtab.rollback ft;
        (Netstack.Flowtab.digest ft, Netstack.Flowtab.persists ft))
      tabs
  in
  (* Cold start: one supervisor unit per queue, each restored from its
     own store directory through the ordinary recovery path. *)
  let reg = Telemetry.Registry.create () in
  let clock = Cycles.Clock.create () in
  let sup =
    Faultinj.Supervisor.create ~telemetry:reg ~clock ~policy:Faultinj.Restart.Immediate
      ~names:(Array.init default_queues (Printf.sprintf "q%d"))
      ~restart:(fun _ -> Ok ())
      ()
  in
  let outcomes =
    Faultinj.Supervisor.cold_start sup ~restore:(fun i ->
        let durable =
          Chkpt.Durable.open_store ~telemetry:reg ~graph:graph_version
            ~dir:(queue_dir root i) ()
        in
        let ctx =
          {
            Netstack.Shard.qc_queue = i;
            qc_clock = clock;
            qc_registry = reg;
            qc_flowcache = None;
          }
        in
        match Netstack.Flowtab.recover ~durable ctx with
        | Error m -> Error m
        | Ok (ft, rv) ->
          let digest_ok = String.equal (Netstack.Flowtab.digest ft) (fst expected.(i)) in
          Ok
            (Printf.sprintf "recovered gen=%d tag=%s digest=%s" rv.Chkpt.Durable.r_generation
               rv.Chkpt.Durable.r_tag
               (if digest_ok then "match" else "MISMATCH")))
  in
  let units =
    List.map
      (fun (i, outcome) -> { q_queue = i; q_outcome = outcome; q_persists = snd expected.(i) })
      outcomes
  in
  {
    s_result = r;
    s_restores = restores;
    s_units = units;
    s_supervisor = Faultinj.Supervisor.stats sup;
    s_recovery_telemetry = reg;
  }

let print_stats s =
  let r = s.s_result in
  (* Deliberately no shard count and no path anywhere in this block: it
     must diff clean across shard counts and against the golden. *)
  Printf.printf
    "E19 counts: crafted=%d served=%d degraded=%d dropped=%d injected=%d restarts=%d \
     restores=%d\n"
    r.Netstack.Shard.r_crafted r.Netstack.Shard.r_served r.Netstack.Shard.r_degraded
    r.Netstack.Shard.r_dropped r.Netstack.Shard.r_injected r.Netstack.Shard.r_restarts
    s.s_restores;
  print_endline "cold-start recovery (one unit per queue, newest valid checkpoint):";
  List.iter
    (fun u ->
      match u.q_outcome with
      | Ok line -> Printf.printf "  q%d: %s (persists=%d)\n" u.q_queue line u.q_persists
      | Error m -> Printf.printf "  q%d: FAILED: %s\n" u.q_queue m)
    s.s_units;
  let sv = s.s_supervisor in
  Printf.printf "supervisor: restarts=%d restart_failures=%d degraded_units=%d\n"
    sv.Faultinj.Supervisor.restarts sv.Faultinj.Supervisor.restart_failures
    sv.Faultinj.Supervisor.degraded_units;
  print_newline ();
  Telemetry.Render.print ~title:"recover telemetry (run)" r.Netstack.Shard.r_telemetry;
  print_newline ();
  Telemetry.Render.print ~title:"recover telemetry (recovery)" s.s_recovery_telemetry

let run_corpus () =
  let dir = default_corpus in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    failwith
      (Printf.sprintf "corpus directory %s not found (run from the repository root)"
         dir)
  else begin
    let reg = Telemetry.Registry.create () in
    let d = Chkpt.Durable.open_store ~telemetry:reg ~graph:corpus_graph ~dir () in
    let recovered, rejects = Chkpt.Durable.recover d in
    Printf.printf "corpus rejections (newest generation first):\n";
    List.iter
      (fun (name, rej) ->
        Printf.printf "  %s: %s\n" name (Chkpt.Durable.reject_to_string rej))
      rejects;
    (match recovered with
    | None -> print_endline "  recovered: none (every corpus checkpoint rejected before step 0)"
    | Some rv ->
      Printf.printf "  recovered: gen=%d tag=%s (corpus unexpectedly contains a valid file)\n"
        rv.Chkpt.Durable.r_generation rv.Chkpt.Durable.r_tag);
    print_newline ();
    Telemetry.Render.print ~title:"recover telemetry (corpus)" reg
  end

(* --- Wall-clock section ---------------------------------------------- *)

type wall = {
  w_buckets : int;
  w_replayed : int;
  w_persists : int;
  w_recover_ms : float;
  w_rebuild_ms : float;
  w_speedup : float;
  w_digest_match : bool;
}

let wall_tag = "flowtab"

(* One synthetic packet: mix the sequence number into a flow key, craft
   a 16-byte header into the scratch buffer and fold a checksum over it
   — roughly what replaying a trace through the storm stage costs per
   packet, so "full rebuild" is priced honestly. *)
let mix k =
  let h = k * 0x2545f4914f6cdd1d in
  let h = h lxor (h lsr 29) in
  let h = h * 0x27d4eb2f165667c5 in
  h lxor (h lsr 32)

let apply_packet tab mask scratch k =
  let h = mix k in
  Bytes.set_int64_le scratch 0 (Int64.of_int h);
  Bytes.set_int64_le scratch 8 (Int64.of_int (h lxor k));
  let sum = ref 0 in
  for i = 0 to 15 do
    sum := !sum + Char.code (Bytes.unsafe_get scratch i)
  done;
  let bucket = (h lxor !sum) land mask in
  Chkpt.Incr.iarr_set tab bucket (Chkpt.Incr.iarr_get tab bucket + 1)

let run_wall () =
  let buckets = 1 lsl 20 and total = 42_000_000 and persist_every = 4_000_000 in
  let chunk = max 1 (buckets / 64) in
  let mask = buckets - 1 in
  let root = fresh_temp_root () in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let run_storm ~dir ~upto =
    let d = Chkpt.Durable.open_store ~graph:graph_version ~dir () in
    let tab = Chkpt.Incr.iarr ~chunk (Array.make buckets 0) in
    let tracker = Chkpt.Incr.iarr_tracker tab in
    let persists = ref 0 in
    let persist () =
      ignore (Chkpt.Incr.iarr_persist tracker d ~tag:wall_tag ~delta:(!persists > 0));
      incr persists
    in
    persist ();
    let scratch = Bytes.create 16 in
    for k = 0 to upto - 1 do
      apply_packet tab mask scratch k;
      if (k + 1) mod persist_every = 0 then persist ()
    done;
    (tab, tracker, !persists)
  in
  let dir = Filename.concat root "wall" in
  let tab, tracker, persists = run_storm ~dir ~upto:total in
  (* Crash: the tail past the last persist is lost; rewinding in memory
     yields the state recovery must reproduce. *)
  let replayed = total / persist_every * persist_every in
  ignore (Chkpt.Incr.restore tracker);
  let expected = Chkpt.Incr.iarr_digest tab in
  let recovered, recover_s =
    Table.time (fun () ->
        let d = Chkpt.Durable.open_store ~graph:graph_version ~dir () in
        match Chkpt.Durable.recover d with
        | Some rv, _ -> (
          match Chkpt.Incr.iarr_of_chunks rv.Chkpt.Durable.r_chunks with
          | Ok t -> Some t
          | Error _ -> None)
        | None, _ -> None)
  in
  let digest_match =
    match recovered with
    | Some t -> String.equal (Chkpt.Incr.iarr_digest t) expected
    | None -> false
  in
  let _, rebuild_s =
    Table.time (fun () -> run_storm ~dir:(Filename.concat root "rebuild") ~upto:replayed)
  in
  let recover_ms = recover_s *. 1e3 and rebuild_ms = rebuild_s *. 1e3 in
  {
    w_buckets = buckets;
    w_replayed = replayed;
    w_persists = persists;
    w_recover_ms = recover_ms;
    w_rebuild_ms = rebuild_ms;
    w_speedup = (if recover_ms > 0. then rebuild_ms /. recover_ms else infinity);
    w_digest_match = digest_match;
  }

let print_wall w =
  Printf.printf
    "wall-clock crash-restart (%d-bucket flowtab, %d packets replayed by a full rebuild,\n\
    \  %d durable checkpoints taken mid-storm):\n"
    w.w_buckets w.w_replayed w.w_persists;
  Printf.printf "  recovery from newest checkpoint: %8.1f ms (digest vs crashed state: %s)\n"
    w.w_recover_ms
    (if w.w_digest_match then "match" else "MISMATCH");
  Printf.printf "  full rebuild by replay:          %8.1f ms\n" w.w_rebuild_ms;
  Printf.printf "  speedup: %.1fx (target: >= 10x) %s\n" w.w_speedup
    (if w.w_speedup >= 10. then "[ok]" else "[MISS]")
