(* The closed packet loop shared by the three packet workloads:
   [Nic.rx_batch] -> [Pipeline.run] -> [Nic.tx_batch], one batch in
   flight, on one domain.

   A batch's latency is rx + run + tx. The output check runs between
   run and tx but outside the timed segments, so harness work never
   counts as system time; the generator (rx) does count, and its share
   is reported as a layer. *)

open Netstack

type env = {
  clock : Cycles.Clock.t;
  pool : Mempool.t;
  engine : Engine.t;
  nic : Nic.t;
}

let pool_capacity = 4096

(* Same seed, same packets: every replica env of a workload replays the
   identical arrival stream and driver bookkeeping. *)
let env ~seed ~plan =
  let clock = Cycles.Clock.create () in
  let pool = Mempool.create ~clock ~capacity:pool_capacity () in
  let engine = Engine.create ~clock ~pool () in
  let traffic = Traffic.of_plan ~rng:(Cycles.Rng.create seed) plan in
  let nic = Nic.create ~driver_seed:(Int64.logxor seed 0xD91DL) ~engine ~traffic () in
  { clock; pool; engine; nic }

type loop = {
  l_env : env;
  l_pipe : Pipeline.t;
  l_batch : int;
  l_check : int -> Batch.t -> bool;
      (** Batch index and pipeline output, before tx; [false] marks the
          batch failed. Untimed. *)
  l_between : int -> unit;  (** After batch [i]: control-plane work. Untimed. *)
  l_probe : unit -> int;
      (** A workload counter read around each traced [Pipeline.run]
          (flowcache misses, flowtab persists). *)
  mutable l_next : int;  (** Global batch index, warm-up included. *)
}

let loop ?(between = fun _ -> ()) ?(probe = fun () -> 0) ~env ~pipe ~batch check =
  {
    l_env = env;
    l_pipe = pipe;
    l_batch = batch;
    l_check = check;
    l_between = between;
    l_probe = probe;
    l_next = 0;
  }

type traced = {
  tr : Trace.t;
  id_batch : int;
  id_rx : int;
  id_run : int;
  id_check : int;
  id_tx : int;
  mutable t_packets : int;
  mutable rx_words : int;
  mutable run_words : int;
  t_batch_ns : Measure.Samples.t;  (** rx + run + tx of each traced batch. *)
  t_run_ns : Measure.Samples.t;
  t_probe : Measure.Samples.t;  (** [l_probe] delta across each traced run. *)
}

type acc = {
  lat : Measure.Samples.t;  (** Plain batches only. *)
  mutable packets : int;
  mutable batches : int;
  mutable errors : int;
  mutable bad : int;
}

let new_acc () = { lat = Measure.Samples.create (); packets = 0; batches = 0; errors = 0; bad = 0 }

let finish_batch l acc ok =
  acc.batches <- acc.batches + 1;
  if not ok then acc.bad <- acc.bad + 1;
  l.l_between l.l_next;
  l.l_next <- l.l_next + 1

let plain_batch l acc =
  let t0 = Measure.now_ns () in
  let b = Nic.rx_batch l.l_env.nic l.l_batch in
  let n = Batch.length b in
  let r = Pipeline.run l.l_pipe b in
  let t1 = Measure.now_ns () in
  acc.packets <- acc.packets + n;
  match r with
  | Error _ ->
    acc.errors <- acc.errors + 1;
    Measure.Samples.add acc.lat (t1 - t0);
    finish_batch l acc false
  | Ok out ->
    let ok = l.l_check l.l_next out in
    let t2 = Measure.now_ns () in
    ignore (Nic.tx_batch l.l_env.nic out);
    let t3 = Measure.now_ns () in
    Measure.Samples.add acc.lat (t1 - t0 + (t3 - t2));
    finish_batch l acc ok

let traced_batch l acc (t : traced) =
  let tr = t.tr in
  Trace.enter tr t.id_batch;
  let w0 = Measure.minor_words () in
  Trace.enter tr t.id_rx;
  let b = Nic.rx_batch l.l_env.nic l.l_batch in
  ignore (Trace.leave tr);
  let w1 = Measure.minor_words () in
  let n = Batch.length b in
  let p0 = l.l_probe () in
  Trace.enter tr t.id_run;
  let r = Pipeline.run l.l_pipe b in
  let run_ns = Trace.leave tr in
  let w2 = Measure.minor_words () in
  let p1 = l.l_probe () in
  let ok, check_ns =
    match r with
    | Error _ ->
      acc.errors <- acc.errors + 1;
      (false, 0)
    | Ok out ->
      Trace.enter tr t.id_check;
      let ok = l.l_check l.l_next out in
      let check_ns = Trace.leave tr in
      Trace.enter tr t.id_tx;
      ignore (Nic.tx_batch l.l_env.nic out);
      ignore (Trace.leave tr);
      (ok, check_ns)
  in
  let batch_ns = Trace.leave tr in
  acc.packets <- acc.packets + n;
  t.t_packets <- t.t_packets + n;
  t.rx_words <- t.rx_words + (w1 - w0);
  t.run_words <- t.run_words + (w2 - w1);
  Measure.Samples.add t.t_batch_ns (batch_ns - check_ns);
  Measure.Samples.add t.t_run_ns run_ns;
  Measure.Samples.add t.t_probe (p1 - p0);
  finish_batch l acc ok

let warmup l n =
  let acc = new_acc () in
  for _ = 1 to n do
    plain_batch l acc
  done;
  acc.errors + acc.bad

type summary = {
  s_acc : acc;  (** Every batch of the measured loop, plain and traced. *)
  s_windows : (int * int * int) list;
      (** Batch index range and packet count of each whole window. *)
  s_heap_mb : float;
      (** Live heap after [heap_windows] windows: a fixed amount of work,
          so state that grows with traffic (Maglev's connection table)
          reads the same however fast the host ran. *)
  s_plain_packets : int;
  s_plain_ns : int;  (** Sum of plain batch latencies. *)
  s_cycles : int;
  s_probes : int;
  s_minor_gcs : int;
  s_major_gcs : int;
  s_traced : traced option;
  s_probe_ns : Measure.Samples.t;
      (** A host probe after each window of an untraced loop. *)
}

let probes clock =
  let c = Cycles.Clock.cache_counters clock in
  Cycles.Cache.(c.l1_hits + c.l2_hits + c.l3_hits + c.dram_accesses)

let heap_windows = 8

(* The measured loop. Untraced: every batch plain, grouped into windows
   of [window] batches for the end-to-end figures, with the [side] tasks
   spread over it at window boundaries. Traced: blocks of [block]
   batches alternate plain and traced, so the tracing overhead is a
   paired in-process ratio, not a comparison across runs. *)
let measure ?side l ~limit ~trace ~block ~window =
  let acc = new_acc () in
  let traced =
    Option.map
      (fun tr ->
        {
          tr;
          id_batch = Trace.layer tr "batch";
          id_rx = Trace.layer tr "nic.rx";
          id_run = Trace.layer tr "pipeline.run";
          id_check = Trace.layer tr "harness.check";
          id_tx = Trace.layer tr "nic.tx";
          t_packets = 0;
          rx_words = 0;
          run_words = 0;
          t_batch_ns = Measure.Samples.create ();
          t_run_ns = Measure.Samples.create ();
          t_probe = Measure.Samples.create ();
        })
      trace
  in
  let windows = ref [] and w_lo = ref 0 and w_packets = ref 0 and heap = ref nan in
  let probe_ns = Measure.Samples.create () in
  let g0 = Gc.quick_stat () in
  let c0 = Cycles.Clock.now l.l_env.clock and p0 = probes l.l_env.clock in
  let start = Measure.now_ns () in
  let i = ref 0 in
  while Measure.within limit ~start_ns:start ~i:!i ~window do
    (match traced with
    | Some t when !i / block mod 2 = 1 -> traced_batch l acc t
    | Some _ | None -> plain_batch l acc);
    incr i;
    if !i mod window = 0 then begin
      windows := (!w_lo, !i, acc.packets - !w_packets) :: !windows;
      w_lo := !i;
      w_packets := acc.packets;
      if !i = heap_windows * window then heap := Measure.heap_live_mb ();
      if Option.is_some side then Measure.Samples.add probe_ns (Measure.host_probe ());
      Option.iter Measure.side_tick side
    end
  done;
  (* A loop too short for one whole window is one window. *)
  if !windows = [] && Option.is_some side then Measure.Samples.add probe_ns (Measure.host_probe ());
  let g1 = Gc.quick_stat () in
  let plain_packets =
    acc.packets - match traced with Some t -> t.t_packets | None -> 0
  in
  {
    s_acc = acc;
    s_windows = (if !windows = [] then [ (0, !i, acc.packets) ] else !windows);
    s_heap_mb = (if Float.is_nan !heap then Measure.heap_live_mb () else !heap);
    s_plain_packets = plain_packets;
    s_plain_ns = Measure.Samples.sum acc.lat;
    s_cycles = Int64.to_int (Int64.sub (Cycles.Clock.now l.l_env.clock) c0);
    s_probes = probes l.l_env.clock - p0;
    s_minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    s_major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    s_traced = traced;
    s_probe_ns = probe_ns;
  }

(* Every batch of the measured loop is an attempted operation; a
   [Pipeline.run] error or a failed output check fails it. *)
let ledger r s =
  let acc = s.s_acc in
  r.Report.attempted <- r.Report.attempted + acc.batches;
  r.Report.failed <- r.Report.failed + acc.errors + acc.bad

(* The end-to-end figures of an untraced loop: per window (a whole
   number of the workload's periods: edit or persist cycles) its
   throughput, p50 and p90 batch latency, each scaled to the reference
   host by the probe taken right after the window; then the median of
   each over the windows. The tail is p90, not p99: the last percent of
   a window is the few batches right after a cache invalidation or under
   a major-GC slice, a cliff whose height moved by a quarter between
   sets of runs of the same code. *)
let report_e2e r s =
  let lat = s.s_acc.lat in
  let windows = Array.of_list (List.rev s.s_windows) in
  let probes = Measure.Samples.to_floats s.s_probe_ns in
  Report.series r "window.probe_ns" probes;
  let per_window name unit_ ~scale f =
    Measure.report_windows r ~probes name unit_ ~scale (Array.map f windows)
  in
  let window_q q (lo, hi, _) = Measure.quantile (Measure.Samples.floats lat ~lo ~hi) q /. 1e3 in
  per_window "throughput" "op/s" ~scale:Measure.rate_at_ref (fun (lo, hi, pkts) ->
      float_of_int pkts /. (float_of_int (Measure.Samples.sum_range lat ~lo ~hi) /. 1e9));
  per_window "latency_p50_us" "us" ~scale:Measure.time_at_ref (window_q 0.5);
  per_window "latency_p90_us" "us" ~scale:Measure.time_at_ref (window_q 0.9);
  Report.metric r "heap_live_mb" "MB" s.s_heap_mb

(* Per-layer metrics common to the packet workloads (traced run). *)
let report_layers r s =
  let pkts = s.s_acc.packets in
  Report.metric r "cycles.virtual_per_pkt" "cycles" (Measure.per s.s_cycles pkts);
  Report.metric r "cycles.probes_per_pkt" "count" (Measure.per s.s_probes pkts);
  Report.metric r "gc.minor_per_mpkt" "count" (1e6 *. Measure.per s.s_minor_gcs pkts);
  Report.metric r "gc.major_per_mpkt" "count" (1e6 *. Measure.per s.s_major_gcs pkts);
  Report.count r "cycles.virtual_per_pkt" (Measure.per s.s_cycles pkts);
  Report.count r "cycles.probes_per_pkt" (Measure.per s.s_probes pkts);
  match s.s_traced with
  | None -> ()
  | Some t ->
    let tr = t.tr in
    let ns id = Measure.per (Trace.total_ns tr id) t.t_packets in
    Report.metric r "nic.rx_ns_per_pkt" "ns" (ns t.id_rx);
    Report.metric r "nic.rx_words_per_pkt" "words" (Measure.per t.rx_words t.t_packets);
    Report.metric r "pipeline.run_ns_per_pkt" "ns" (ns t.id_run);
    Report.metric r "pipeline.run_words_per_pkt" "words" (Measure.per t.run_words t.t_packets);
    Report.metric r "nic.tx_ns_per_pkt" "ns" (ns t.id_tx);
    Report.count r "nic.rx_words_per_pkt" (Measure.per t.rx_words t.t_packets);
    Report.count r "pipeline.run_words_per_pkt" (Measure.per t.run_words t.t_packets);
    let layers = Trace.total_ns tr t.id_rx + Trace.total_ns tr t.id_run + Trace.total_ns tr t.id_tx in
    let loop = Trace.total_ns tr t.id_batch - Trace.total_ns tr t.id_check in
    Report.metric r "layers.sum_ratio" "ratio" (Measure.per layers loop);
    let traced_ns = Measure.per (Measure.Samples.sum t.t_batch_ns) t.t_packets in
    let plain_ns = Measure.per s.s_plain_ns s.s_plain_packets in
    Report.metric r "trace.overhead_ratio" "ratio" (traced_ns /. plain_ns)

(* Time each stage of a chain on its own: a fresh env on the same seed
   feeds [batches] batches through the stages one at a time. Rewrite and
   Filter kernels are applied exactly as [Stage.process] applies them,
   but the header-plane writeback after each stage is timed apart, as
   [batch.materialize]; Opaque stages go through [Stage.process]. *)
let stage_pass tr ~seed ~plan ~batch ~batches (stages : env -> Stage.t list) r =
  let e = env ~seed ~plan in
  let chain = stages e in
  let ids = List.map (fun s -> (s, Trace.layer tr ("stage." ^ Stage.name s))) chain in
  let pkts = Array.make (List.length chain) 0 in
  let id_pass = Trace.layer tr "stage-pass.batch" in
  let id_mat = Trace.layer tr "batch.materialize" in
  let id_rx = Trace.layer tr "stage-pass.rx" in
  let id_tx = Trace.layer tr "stage-pass.tx" in
  let mat_pkts = ref 0 in
  for _ = 1 to batches do
    Trace.enter tr id_pass;
    Trace.enter tr id_rx;
    let b = Nic.rx_batch e.nic batch in
    ignore (Trace.leave tr);
    let b =
      List.fold_left
        (fun (k, b) (s, id) ->
          pkts.(k) <- pkts.(k) + Batch.length b;
          Trace.enter tr id;
          let b =
            match Stage.kernel s with
            | Stage.Opaque _ -> Stage.process s e.engine b
            | Stage.Rewrite f ->
              for i = 0 to Batch.length b - 1 do
                f e.engine b i (Batch.get b i)
              done;
              b
            | Stage.Filter f ->
              let dropped = Batch.filteri_in_place b (fun i p -> f e.engine b i p) in
              List.iter (Mempool.free e.pool) dropped;
              b
          in
          ignore (Trace.leave tr);
          mat_pkts := !mat_pkts + Batch.length b;
          Trace.enter tr id_mat;
          Batch.materialize b;
          ignore (Trace.leave tr);
          (k + 1, b))
        (0, b) ids
      |> snd
    in
    Trace.enter tr id_tx;
    ignore (Nic.tx_batch e.nic b);
    ignore (Trace.leave tr);
    ignore (Trace.leave tr)
  done;
  List.iteri
    (fun k (s, id) ->
      Report.metric r
        (Printf.sprintf "stage.%s.ns_per_pkt" (Stage.name s))
        "ns"
        (Measure.per (Trace.total_ns tr id) pkts.(k)))
    ids;
  Report.metric r "batch.materialize_ns_per_pkt" "ns" (Measure.per (Trace.total_ns tr id_mat) !mat_pkts)
