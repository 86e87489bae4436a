(* maglev-64b: the Figure-2 Maglev NF (csum -> ttl-dec -> maglev-gre)
   in an Isolated pipeline, uniform 1024 flows of 64-byte frames, batch
   32. Per-packet cost dominates at minimum frame size and Isolated mode
   prices the SFI crossing; flowcache, rule DB, checkpoint store and IFC
   are bypassed. *)

open Netstack

let vip = 0xC0A80001
let backends = Array.init 8 (Printf.sprintf "backend-%d")
let flows = 1024
let batch = 32
let payload_bytes = 18
let warmup_batches = 500
let plan () = Traffic.plan ~payload_bytes (Traffic.Uniform { flows })

let nf (e : Pkt.env) =
  let mg = Maglev.create ~clock:e.Pkt.clock ~backends () in
  [ Filters.checksum_verify; Filters.ttl_decrement; Filters.maglev_gre mg ~vip ]

let isolated (e : Pkt.env) =
  let manager = Sfi.Manager.create ~clock:e.Pkt.clock () in
  Pipeline.create ~engine:e.Pkt.engine ~mode:(Pipeline.Isolated manager) (nf e)

(* Maglev tunnels each packet from the VIP to backend [b] at
   10.1.0.[b]; the outer header must carry a valid checksum. *)
let frame_ok p =
  Packet.is_gre p
  && Packet.ipv4_checksum_ok p
  && Packet.src_ip_int p = vip
  &&
  let dst = Packet.dst_ip_int p in
  dst land lnot 0xffff = 0x0A010000 && dst land 0xffff < Array.length backends

let check _ out =
  let ok = ref true in
  Batch.iter (fun p -> if not (frame_ok p) then ok := false) out;
  !ok

type state = { env : Pkt.env; pipe : Pipeline.t }

let setup ~seed () =
  let env = Pkt.env ~seed ~plan:(plan ()) in
  { env; pipe = isolated env }

(* Cold start: a fresh NF (Maglev tables, protection domains, pipeline)
   up to its first transmitted batch. *)
let cold_start (e : Pkt.env) =
  let pipe = isolated e in
  match Pipeline.run pipe (Nic.rx_batch e.Pkt.nic batch) with
  | Ok out ->
    let ok = check 0 out in
    ignore (Nic.tx_batch e.Pkt.nic out);
    ok
  | Error _ -> false

(* Interleaved Isolated/Direct pairs over the same traffic: the median
   paired difference of [Pipeline.run] is the price of the crossing. *)
let sfi_pairs tr ~seed ~pairs r =
  let ei = Pkt.env ~seed ~plan:(plan ()) and ed = Pkt.env ~seed ~plan:(plan ()) in
  let pi = isolated ei in
  let pd = Pipeline.create ~engine:ed.Pkt.engine ~mode:Pipeline.Direct (nf ed) in
  let id_i = Trace.layer tr "sfi.isolated.run" and id_d = Trace.layer tr "sfi.direct.run" in
  let errors = ref 0 in
  let one (e : Pkt.env) p id =
    let b = Nic.rx_batch e.Pkt.nic batch in
    Trace.enter tr id;
    let res = Pipeline.run p b in
    let ns = Trace.leave tr in
    (match res with Ok out -> ignore (Nic.tx_batch e.Pkt.nic out) | Error _ -> incr errors);
    ns
  in
  let diffs =
    Array.init pairs (fun k ->
        if k mod 2 = 0 then
          let iso = one ei pi id_i in
          float_of_int (iso - one ed pd id_d)
        else
          let dir = one ed pd id_d in
          float_of_int (one ei pi id_i - dir))
  in
  Report.attempt r (!errors = 0);
  Report.metric r "sfi.crossing_ns_per_batch" "ns" (Measure.median diffs);
  Report.metric r "sfi.crossings_per_batch" "count"
    (float_of_int (List.length (Pipeline.fused_groups pi)))

let run ~seed ~budget ~trace r =
  let fixed = Measure.fixed budget in
  Report.param r "flows" (string_of_int flows);
  Report.param r "frame_bytes" "64";
  Report.param r "batch" (string_of_int batch);
  Report.param r "mode" "isolated";
  Report.param r "backends" (string_of_int (Array.length backends));
  let st, first_setup = Measure.probed_ns (setup ~seed) in
  let limit = Measure.limit budget ~fixed_count:2000 in
  (* Cold starts draw from an env of their own, so they never shift the
     measured loop's arrival stream. *)
  let cold_env = Pkt.env ~seed ~plan:(plan ()) in
  let side =
    Measure.side limit ~first_setup
      ~cold:(fun () ->
        let ok, ns = Measure.time_ns (fun () -> cold_start cold_env) in
        Report.attempt r ok;
        ns)
      ~setup:(setup ~seed) ~dispose:ignore
  in
  let l = Pkt.loop ~env:st.env ~pipe:st.pipe ~batch check in
  Report.attempt r (Pkt.warmup l warmup_batches = 0);
  let s =
    Pkt.measure ?side:(if Option.is_none trace then Some side else None) l ~limit ~trace ~block:64
      ~window:1024
  in
  (* Conservation: every received packet was served (none is dropped
     on this traffic) and every buffer is back in the pool. *)
  Report.attempt r
    (Nic.tx_packets st.env.Pkt.nic = Nic.rx_packets st.env.Pkt.nic
    && Mempool.in_use st.env.Pkt.pool = 0);
  Pkt.ledger r s;
  match trace with
  | Some tr ->
    Pkt.report_layers r s;
    Pkt.stage_pass tr ~seed ~plan:(plan ()) ~batch
      ~batches:(if fixed then 200 else 2000)
      nf
      r;
    sfi_pairs tr ~seed ~pairs:(if fixed then 200 else 2000) r
  | None ->
    Pkt.report_e2e r s;
    Measure.side_finish side r
