type t = {
  tab : Chkpt.Incr.iarr;
  tracker : Chkpt.Incr.iarr Chkpt.Incr.tracker;
  tele : Chkpt.Tele.t;
  durable : Chkpt.Durable.t option;
  tag : string;
  mask : int;
  snapshot_every : int;
  mutable batches : int;
  mutable persists : int;
  mutable rollbacks : int;
  mutable gen : int option; (* newest durable generation; Some => lineage primed *)
}

let snapshot t = Chkpt.Tele.record_snapshot t.tele (Chkpt.Incr.sync t.tracker)

let persist t =
  match t.durable with
  | None -> snapshot t
  | Some d ->
    let stats, gen = Chkpt.Incr.iarr_persist t.tracker d ~tag:t.tag ~delta:(t.gen <> None) in
    Chkpt.Tele.record_snapshot t.tele stats;
    t.persists <- t.persists + 1;
    t.gen <- Some gen

let build ?(snapshot_every = 8) ?durable ?(tag = "flowtab") ~gen ~snapshot_now
    (ctx : Shard.queue_ctx) tab =
  let n = Chkpt.Incr.iarr_length tab in
  if n land (n - 1) <> 0 || n = 0 then
    invalid_arg "Flowtab: bucket count must be a power of two";
  if snapshot_every <= 0 then invalid_arg "Flowtab: snapshot_every must be positive";
  let tracker = Chkpt.Incr.iarr_tracker tab in
  let tele = Chkpt.Tele.v ctx.Shard.qc_registry in
  let t =
    {
      tab;
      tracker;
      tele;
      durable;
      tag;
      mask = n - 1;
      snapshot_every;
      batches = 0;
      persists = 0;
      rollbacks = 0;
      gen;
    }
  in
  if snapshot_now then persist t;
  t

let create ?(buckets = 256) ?(chunk = 16) ?snapshot_every ?durable ?tag ctx =
  (* The baseline checkpoint, so a restart in the first few batches
     still has something to restore. *)
  build ?snapshot_every ?durable ?tag ~gen:None ~snapshot_now:true ctx
    (Chkpt.Incr.iarr ~chunk (Array.make buckets 0))

let recover ?snapshot_every ?(tag = "flowtab") ~durable ctx =
  match Chkpt.Durable.recover durable with
  | None, _ -> Error "flowtab: no valid checkpoint"
  | Some r, _ ->
    if r.Chkpt.Durable.r_tag <> tag then
      Error
        (Printf.sprintf "flowtab: checkpoint tagged %S, expected %S" r.Chkpt.Durable.r_tag
           tag)
    else (
      match Chkpt.Incr.iarr_of_chunks r.Chkpt.Durable.r_chunks with
      | Error m -> Error m
      | Ok tab ->
        (* Snapshot in memory but do not re-save: the disk already
           holds this exact state at [r_generation], and the table's
           shadow is those verified payloads, so the snapshot encodes
           nothing. Later persists continue the lineage with deltas. *)
        let t =
          build ?snapshot_every ~durable ~tag ~gen:(Some r.Chkpt.Durable.r_generation)
            ~snapshot_now:false ctx tab
        in
        snapshot t;
        Ok (t, r))

let stage t =
  Stage.opaque ~name:"flowtab" (fun engine batch ->
      let clock = Engine.clock engine in
      Batch.iteri
        (fun i p ->
          Engine.touch_packet engine p ~off:Packet.eth_header_bytes
            ~bytes:Packet.ipv4_header_bytes;
          Cycles.Clock.charge clock (Alu 6);
          let bucket = Batch.flow_key batch i land t.mask in
          Chkpt.Incr.iarr_set t.tab bucket (Chkpt.Incr.iarr_get t.tab bucket + 1))
        batch;
      t.batches <- t.batches + 1;
      if t.batches mod t.snapshot_every = 0 then persist t;
      batch)

let rollback t =
  let stats = Chkpt.Incr.restore t.tracker in
  t.rollbacks <- t.rollbacks + 1;
  Chkpt.Tele.record_rollback t.tele stats

let rollbacks t = t.rollbacks
let persists t = t.persists
let generation t = t.gen

let digest t = Chkpt.Incr.iarr_digest t.tab

let get t i = Chkpt.Incr.iarr_get t.tab i
let buckets t = t.mask + 1
