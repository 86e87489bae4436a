(* megaflow-zipf-edits: E17's slow-path-heavy chain (a linear rule DB of
   760 never-matching pad rules plus 8 drop rules, in front of
   csum -> ttl-dec -> maglev-gre) behind a 131 072-entry flowcache,
   Direct mode, 1M-flow Zipf(1.2), batch 64. Every 500 batches a rule
   edit (add, then remove, one never-matching rule) goes through the
   rule DB's public mutators, and each mutation invalidates the whole
   cache through [Ruledb.on_mutate]. The cache's reads (probe/replay)
   and writes (install, slow path) both run here. *)

open Netstack

let flows = 1_000_000
let exponent = 1.2
let capacity = 131_072
let batch = 64
let rule_pad = 760
let rule_drops = 8
let edit_every = 500
let sample_every = 16
let warmup_batches = 1000

let plan () = Traffic.plan (Traffic.Zipf { flows; exponent })

(* Accept rules for 11.x.[i].0/24: the client population is 10.0.0.0/16,
   so every packet scans past all of them. *)
let never_matching i =
  Ruledb.rule ~src:(Int32.logor 0x0B000000l (Int32.of_int ((i land 0xff) lsl 8)), 24) Ruledb.Accept

let chain (e : Pkt.env) =
  let db = Ruledb.create ~clock:e.Pkt.clock () in
  for i = 0 to rule_pad - 1 do
    Ruledb.add db (never_matching i)
  done;
  for i = 0 to rule_drops - 1 do
    let lo = 2_000 + (i * 6_000) in
    Ruledb.add db (Ruledb.rule ~src_port:(lo, lo + 1023) Ruledb.Drop)
  done;
  let mg = Maglev.create ~clock:e.Pkt.clock ~backends:Wl_maglev.backends () in
  ( db,
    [
      Ruledb.stage db;
      Filters.checksum_verify;
      Filters.ttl_decrement;
      Filters.maglev_gre mg ~vip:Wl_maglev.vip;
    ] )

let cached (e : Pkt.env) =
  let fc =
    Flowcache.create ~clock:e.Pkt.clock ~capacity ~ttl_cycles:(Int64.shift_left 1L 62) ()
  in
  let db, stages = chain e in
  (fc, db, Pipeline.create ~engine:e.Pkt.engine ~mode:Pipeline.Direct ~flowcache:fc stages)

type state = {
  plan : Traffic.plan;
  env : Pkt.env;
  fc : Flowcache.t;
  db : Ruledb.t;
  pipe : Pipeline.t;
}

let setup ~seed () =
  let plan = plan () in
  let env = Pkt.env ~seed ~plan in
  let fc, db, pipe = cached env in
  { plan; env; fc; db; pipe }

let edit db =
  Ruledb.add db (never_matching 0x7f);
  Ruledb.remove db (Ruledb.rule_count db - 1)

let all_frames_ok out =
  let ok = ref true in
  Batch.iter (fun p -> if not (Wl_maglev.frame_ok p) then ok := false) out;
  !ok

(* The oracle: an uncached replica of the chain on its own env, fed the
   same seed. It receives every batch, to stay aligned with the arrival
   stream, and runs the sampled ones; their output must be
   byte-identical to the cached pipeline's. *)
let replica_check ~seed st =
  let renv = Pkt.env ~seed ~plan:st.plan in
  let _, stages = chain renv in
  let rpipe = Pipeline.create ~engine:renv.Pkt.engine ~mode:Pipeline.Direct stages in
  fun i out ->
    let rb = Nic.rx_batch renv.Pkt.nic batch in
    if i mod sample_every <> 0 then begin
      Nic.drop_batch renv.Pkt.nic rb;
      all_frames_ok out
    end
    else
      match Pipeline.run rpipe rb with
      | Error _ -> false
      | Ok rout ->
        let same =
          Batch.length rout = Batch.length out
          && List.for_all2
               (fun a b -> String.equal (Packet.to_string a) (Packet.to_string b))
               (Batch.packets out) (Batch.packets rout)
        in
        ignore (Nic.tx_batch renv.Pkt.nic rout);
        same && all_frames_ok out

(* Cold start: a fresh rule DB, Maglev, empty cache and pipeline up to
   the first transmitted batch. *)
let cold_start (e : Pkt.env) =
  let _, _, pipe = cached e in
  match Pipeline.run pipe (Nic.rx_batch e.Pkt.nic batch) with
  | Ok out ->
    let ok = all_frames_ok out in
    ignore (Nic.tx_batch e.Pkt.nic out);
    ok
  | Error _ -> false

let run ~seed ~budget ~trace r =
  let fixed = Measure.fixed budget in
  Report.param r "flows" (string_of_int flows);
  Report.param r "zipf_exponent" (string_of_float exponent);
  Report.param r "cache_capacity" (string_of_int capacity);
  Report.param r "batch" (string_of_int batch);
  Report.param r "rules" (string_of_int (rule_pad + rule_drops));
  Report.param r "edit_every_batches" (string_of_int edit_every);
  Report.param r "mode" "direct";
  let st, first_setup = Measure.probed_ns (setup ~seed) in
  let limit = Measure.limit budget ~fixed_count:2000 in
  (* Cold starts draw from an env of their own, so they never shift the
     arrival stream the replica oracle follows. *)
  let cold_env = Pkt.env ~seed ~plan:st.plan in
  let side =
    Measure.side limit ~first_setup
      ~cold:(fun () ->
        let ok, ns = Measure.time_ns (fun () -> cold_start cold_env) in
        Report.attempt r ok;
        ns)
      ~setup:(setup ~seed) ~dispose:ignore
  in
  let l =
    Pkt.loop ~env:st.env ~pipe:st.pipe ~batch
      ~between:(fun i -> if (i + 1) mod edit_every = 0 then edit st.db)
      ~probe:(fun () -> (Flowcache.stats st.fc).Flowcache.misses)
      (replica_check ~seed st)
  in
  Report.attempt r (Pkt.warmup l warmup_batches = 0);
  let f0 = Flowcache.stats st.fc in
  (* A window is two edit periods, so its p99 has ten batches beyond it. *)
  let s =
    Pkt.measure ?side:(if Option.is_none trace then Some side else None) l ~limit ~trace ~block:64
      ~window:(2 * edit_every)
  in
  let f1 = Flowcache.stats st.fc in
  Report.attempt r (Mempool.in_use st.env.Pkt.pool = 0);
  let d f = f f1 - f f0 in
  let pkts = s.Pkt.s_acc.Pkt.packets in
  Report.count r "flowcache.hits" (float_of_int (d (fun s -> s.Flowcache.hits)));
  Report.count r "flowcache.installs" (float_of_int (d (fun s -> s.Flowcache.installs)));
  Pkt.ledger r s;
  match trace with
  | Some tr ->
    Pkt.report_layers r s;
    Report.metric r "flowcache.hit_rate" "ratio"
      (Measure.per (d (fun s -> s.Flowcache.hits)) (d (fun s -> s.Flowcache.lookups)));
    Report.metric r "flowcache.installs_per_kpkt" "count"
      (1e3 *. Measure.per (d (fun s -> s.Flowcache.installs)) pkts);
    Report.metric r "flowcache.evictions_per_kpkt" "count"
      (1e3
      *. Measure.per
           (d (fun s -> s.Flowcache.evictions_lru + s.Flowcache.evictions_ttl + s.Flowcache.evictions_stale))
           pkts);
    Report.metric r "flowcache.invalidations_per_kbatch" "count"
      (1e3 *. Measure.per (d (fun s -> s.Flowcache.invalidations)) s.Pkt.s_acc.Pkt.batches);
    (* Almost every batch holds a miss, so all-hit batches cannot be
       timed alone: fit per-packet run time against the batch's miss
       share. The intercept is the all-hit cost, intercept + slope the
       all-miss cost. *)
    (match s.Pkt.s_traced with
    | None -> ()
    | Some t ->
      let n = float_of_int batch in
      let xs = Array.map (fun m -> m /. n) (Measure.Samples.to_floats t.Pkt.t_probe) in
      let ys = Array.map (fun ns -> ns /. n) (Measure.Samples.to_floats t.Pkt.t_run_ns) in
      let a, b = Measure.least_squares xs ys in
      Report.metric r "flowcache.hit_ns_per_pkt" "ns" a;
      Report.metric r "flowcache.miss_ns_per_pkt" "ns" (a +. b));
    Pkt.stage_pass tr ~seed ~plan:st.plan ~batch
      ~batches:(if fixed then 50 else 500)
      (fun e -> snd (chain e))
      r
  | None ->
    Pkt.report_e2e r s;
    Measure.side_finish side r
