(* flowtab-ckpt: a Direct csum -> flowtab pipeline (2^20 buckets in E19's
   64-chunk geometry) that persists a delta checkpoint to a durable store
   every 1024 batches. After the loop the table "crashes": it is rolled
   back to its last snapshot, and repeated cold starts recover it from
   disk. The packet path is cheap, so time goes to checkpoint sync,
   encode, hash and write, and to recovery decode and rebuild. *)

open Netstack

let buckets = 1 lsl 20
let chunk = buckets / 64
let snapshot_every = 1024
let warmup_cycles = 16
let batch = 32
let flows = 65_536
let graph = 19
let tag = "flowtab"

let plan () = Traffic.plan (Traffic.Uniform { flows })

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let dir_seq = ref 0

let fresh_dir root =
  incr dir_seq;
  let d = Filename.concat root (Printf.sprintf "ckpt-%d-%d" (Unix.getpid ()) !dir_seq) in
  if Sys.file_exists d then rm_rf d;
  d

let ctx (e : Pkt.env) reg =
  { Shard.qc_queue = 0; qc_clock = e.Pkt.clock; qc_registry = reg; qc_flowcache = None }

type state = {
  env : Pkt.env;
  reg : Telemetry.Registry.t;
  store_dir : string;
  ft : Flowtab.t;
  pipe : Pipeline.t;
}

(* Set-up includes the baseline full checkpoint [Flowtab.create] takes. *)
let setup ~seed ~dir () =
  let env = Pkt.env ~seed ~plan:(plan ()) in
  let reg = Telemetry.Registry.create () in
  let store_dir = fresh_dir dir in
  let durable = Chkpt.Durable.open_store ~telemetry:reg ~graph ~dir:store_dir () in
  let ft = Flowtab.create ~buckets ~chunk ~snapshot_every ~durable ~tag (ctx env reg) in
  let pipe =
    Pipeline.create ~engine:env.Pkt.engine ~mode:Pipeline.Direct
      [ Filters.checksum_verify; Flowtab.stage ft ]
  in
  { env; reg; store_dir; ft; pipe }

let counter reg name =
  match Telemetry.Registry.find reg ("chkpt.durable." ^ name) with
  | Some (Telemetry.Registry.Counter c) -> Telemetry.Counter.value c
  | Some _ | None -> 0

let bucket p = Flow.hash (Packet.flow_of p) land (buckets - 1)

let frames_ok out =
  let ok = ref true in
  Batch.iter (fun p -> if not (Packet.ipv4_checksum_ok p) then ok := false) out;
  !ok

let digest_iarr tab =
  Digest.to_hex (Digest.string (String.concat "" (Array.to_list (Chkpt.Incr.iarr_to_chunks tab))))

(* The checkpoint layers, timed on a replica table of the same geometry
   fed the same bucket updates and persisted on the same cadence to a
   store of its own: the flowtab stage performs these steps in one call,
   so they cannot be timed apart from outside it. *)
type replica = {
  tab : Chkpt.Incr.iarr;
  tracker : Chkpt.Incr.iarr Chkpt.Incr.tracker;
  store : Chkpt.Durable.t;
  id_sync : int;
  id_encode : int;
  id_hash : int;
  id_save : int;
}

let replica tr ~dir =
  let tab = Chkpt.Incr.iarr ~chunk (Array.make buckets 0) in
  let tracker = Chkpt.Incr.iarr_tracker tab in
  ignore (Chkpt.Incr.sync tracker);
  let store = Chkpt.Durable.open_store ~graph ~dir:(fresh_dir dir) () in
  ignore (Chkpt.Durable.save store ~tag ~chunks:(Chkpt.Incr.iarr_to_chunks tab));
  {
    tab;
    tracker;
    store;
    id_sync = Trace.layer tr "chkpt.sync";
    id_encode = Trace.layer tr "chkpt.encode";
    id_hash = Trace.layer tr "chkpt.hash";
    id_save = Trace.layer tr "durable.save_delta";
  }

let replica_persist tr rp =
  let dirty = Chkpt.Incr.iarr_dirty_list rp.tab in
  Trace.span tr rp.id_sync (fun () -> ignore (Chkpt.Incr.sync rp.tracker));
  let payloads =
    Trace.span tr rp.id_encode (fun () ->
        List.map (fun c -> (c + 1, Chkpt.Incr.iarr_chunk_bytes rp.tab c)) dirty)
  in
  Trace.span tr rp.id_hash (fun () -> List.iter (fun (_, s) -> ignore (Chkpt.Wire.fnv64 s)) payloads);
  Trace.span tr rp.id_save (fun () -> ignore (Chkpt.Durable.save_delta rp.store ~tag ~dirty:payloads))

let run ~dir ~seed ~budget ~trace r =
  let fixed = Measure.fixed budget in
  Report.param r "buckets" (string_of_int buckets);
  Report.param r "chunks" (string_of_int (buckets / chunk));
  Report.param r "persist_every_batches" (string_of_int snapshot_every);
  Report.param r "flows" (string_of_int flows);
  Report.param r "batch" (string_of_int batch);
  Report.param r "mode" "direct";
  let scratch = fresh_dir dir in
  Sys.mkdir scratch 0o755;
  Fun.protect ~finally:(fun () -> rm_rf scratch) @@ fun () ->
  let st, first_setup = Measure.probed_ns (setup ~seed ~dir:scratch) in
  let rp = Option.map (fun tr -> replica tr ~dir:scratch) trace in
  let check _ out =
    (match rp with
    | Some rp -> Batch.iter (fun p -> let b = bucket p in Chkpt.Incr.iarr_set rp.tab b (Chkpt.Incr.iarr_get rp.tab b + 1)) out
    | None -> ());
    frames_ok out
  in
  let persisted = ref (Flowtab.persists st.ft) in
  let between _ =
    if Flowtab.persists st.ft <> !persisted then begin
      persisted := Flowtab.persists st.ft;
      match (trace, rp) with Some tr, Some rp -> replica_persist tr rp | _ -> ()
    end
  in
  let l =
    Pkt.loop ~env:st.env ~pipe:st.pipe ~batch ~between
      ~probe:(fun () -> Flowtab.persists st.ft)
      check
  in
  (* Whole persist cycles, so the measured loop starts on a cycle
     boundary and every traced block holds exactly one persist. *)
  Report.attempt r (Pkt.warmup l (warmup_cycles * snapshot_every) = 0);
  let limit = Measure.limit budget ~fixed_count:(3 * snapshot_every) in
  (* Cold start: open the store and recover the table from its newest
     checkpoint. The side task runs at a window boundary, right after a
     persist, so the live table is exactly what recovery must rebuild. *)
  let recover () =
    let durable = Chkpt.Durable.open_store ~graph ~dir:st.store_dir () in
    Flowtab.recover ~snapshot_every ~tag ~durable (ctx st.env (Telemetry.Registry.create ()))
  in
  let recovered_ok expected = function
    | Ok (ft, _) -> String.equal (Flowtab.digest ft) expected
    | Error _ -> false
  in
  let side =
    Measure.side limit ~first_setup
      ~cold:(fun () ->
        let expected = Flowtab.digest st.ft in
        let recovered, ns = Measure.time_ns recover in
        Report.attempt r (recovered_ok expected recovered);
        ns)
      ~setup:(setup ~seed ~dir:scratch)
      ~dispose:(fun st -> rm_rf st.store_dir)
  in
  let persists0 = Flowtab.persists st.ft in
  let c name = counter st.reg name in
  let bytes0 = c "bytes_written" and written0 = c "chunks_written" and reused0 = c "chunks_reused" in
  let s =
    Pkt.measure ?side:(if Option.is_none trace then Some side else None) l ~limit ~trace
      ~block:snapshot_every ~window:snapshot_every
  in
  let persists = Flowtab.persists st.ft - persists0 in
  let bytes = c "bytes_written" - bytes0 in
  let written = c "chunks_written" - written0 and reused = c "chunks_reused" - reused0 in
  Report.count r "durable.bytes" (float_of_int bytes);
  Report.count r "durable.chunks_written" (float_of_int written);
  Report.count r "durable.chunks_reused" (float_of_int reused);
  Report.attempt r
    (Nic.tx_packets st.env.Pkt.nic = Nic.rx_packets st.env.Pkt.nic
    && Mempool.in_use st.env.Pkt.pool = 0);
  (* Crash: whatever the table counted since its last persist is lost.
     Rolled back in memory, it is the state recovery must reproduce. *)
  Flowtab.rollback st.ft;
  let expected = Flowtab.digest st.ft in
  Pkt.ledger r s;
  match trace with
  | Some tr ->
    Pkt.report_layers r s;
    let ms id = Measure.per (Trace.total_ns tr id) (Trace.count tr id) /. 1e6 in
    (match rp with
    | Some rp ->
      Report.metric r "chkpt.sync_ms" "ms" (ms rp.id_sync);
      Report.metric r "chkpt.encode_ms" "ms" (ms rp.id_encode);
      Report.metric r "chkpt.hash_ms" "ms" (ms rp.id_hash);
      Report.metric r "durable.save_delta_ms" "ms" (ms rp.id_save)
    | None -> ());
    (match s.Pkt.s_traced with
    | Some t ->
      let lat = Measure.Samples.to_floats t.Pkt.t_batch_ns in
      let probe = Measure.Samples.to_floats t.Pkt.t_probe in
      let pick want = Array.of_list (List.filteri (fun i _ -> (probe.(i) > 0.) = want) (Array.to_list lat)) in
      Report.metric r "chkpt.persist_ms" "ms"
        ((Measure.median (pick true) -. Measure.median (pick false)) /. 1e6)
    | None -> ());
    Report.metric r "durable.bytes_per_persist" "bytes" (Measure.per bytes persists);
    Report.metric r "durable.chunks_written_per_persist" "count" (Measure.per written persists);
    Report.metric r "durable.chunks_reused_per_persist" "count" (Measure.per reused persists);
    (* Recovery split into its two public steps: scan, decode and verify
       the newest checkpoint, then rebuild the tracked array. *)
    let id_recover = Trace.layer tr "durable.recover" and id_rebuild = Trace.layer tr "incr.rebuild" in
    for _ = 1 to if fixed then 1 else 5 do
      let d = Chkpt.Durable.open_store ~graph ~dir:st.store_dir () in
      let ok =
        match Trace.span tr id_recover (fun () -> Chkpt.Durable.recover d) with
        | Some rv, _ -> (
          match Trace.span tr id_rebuild (fun () -> Chkpt.Incr.iarr_of_chunks rv.Chkpt.Durable.r_chunks) with
          | Ok tab -> String.equal (digest_iarr tab) expected
          | Error _ -> false)
        | None, _ -> false
      in
      Report.attempt r ok
    done;
    Report.metric r "durable.recover_ms" "ms" (ms id_recover);
    Report.metric r "incr.rebuild_ms" "ms" (ms id_rebuild);
    Pkt.stage_pass tr ~seed ~plan:(plan ()) ~batch
      ~batches:(if fixed then 200 else 2000)
      (fun e ->
        let ft =
          Flowtab.create ~buckets ~chunk ~snapshot_every:max_int ~tag (ctx e (Telemetry.Registry.create ()))
        in
        [ Filters.checksum_verify; Flowtab.stage ft ])
      r
  | None ->
    Report.attempt r (recovered_ok expected (recover ()));
    Pkt.report_e2e r s;
    Measure.side_finish side r
