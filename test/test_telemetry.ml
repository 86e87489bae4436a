(* Tests for the telemetry subsystem: counters, gauges, log-bucketed
   histograms, spans, the registry, and the end-to-end cross-checks
   that tie the metric arithmetic to the experiments (E1/E3). *)

open Telemetry

let fresh () = Registry.create ()

(* ------------------------------------------------------------------ *)
(* Counter / Gauge                                                     *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let reg = fresh () in
  let c = Registry.counter reg "a.b.c" in
  Alcotest.(check int) "starts at 0" 0 (Counter.value c);
  Counter.incr c;
  Counter.add c 41;
  Alcotest.(check int) "42" 42 (Counter.value c);
  Counter.add c 0;
  Alcotest.(check int) "add 0 ok" 42 (Counter.value c)

let test_counter_monotonic () =
  let reg = fresh () in
  let c = Registry.counter reg "mono" in
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Counter.add: counters are monotonic") (fun () -> Counter.add c (-3));
  Alcotest.(check int) "unchanged after rejection" 0 (Counter.value c)

let test_gauge_moves_both_ways () =
  let reg = fresh () in
  let g = Registry.gauge reg "pool.occupancy" in
  Gauge.set g 10;
  Gauge.add g 5;
  Gauge.add g (-7);
  Alcotest.(check int) "10+5-7" 8 (Gauge.value g);
  Gauge.add g (-20);
  Alcotest.(check int) "may go negative" (-12) (Gauge.value g)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

(* The Cycles.Stats percentile convention: rank ceil(p/100*n). *)
let exact_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    let rank = Stdlib.max 1 (Stdlib.min n rank) in
    sorted.(rank - 1)
  end

(* Deterministic pseudo-random stream (no wall-clock, no global seed). *)
let lcg_stream ~seed n ~bound =
  let state = ref seed in
  Array.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod bound)

let test_histogram_small_values_exact () =
  let reg = fresh () in
  let h = Registry.histogram reg "small" in
  (* Values below 8 land in exact single-value buckets. *)
  List.iter (Histogram.observe h) [ 0; 1; 2; 3; 4; 5; 6; 7; 7; 7 ];
  Alcotest.(check int) "count" 10 (Histogram.count h);
  Alcotest.(check int) "sum" 42 (Histogram.sum h);
  Alcotest.(check int) "min" 0 (Histogram.min h);
  Alcotest.(check int) "max" 7 (Histogram.max h);
  Alcotest.(check int) "p50 exact" 4 (Histogram.percentile h 50.);
  Alcotest.(check int) "p100 exact" 7 (Histogram.percentile h 100.)

let test_histogram_quantiles_vs_reference () =
  let reg = fresh () in
  let h = Registry.histogram reg "ref" in
  let values = lcg_stream ~seed:97 500 ~bound:200_000 in
  Array.iter (Histogram.observe h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  Alcotest.(check int) "count exact" 500 (Histogram.count h);
  Alcotest.(check int) "sum exact" (Array.fold_left ( + ) 0 values) (Histogram.sum h);
  Alcotest.(check int) "min exact" sorted.(0) (Histogram.min h);
  Alcotest.(check int) "max exact" sorted.(499) (Histogram.max h);
  List.iter
    (fun p ->
      let est = Histogram.percentile h p in
      let exact = exact_percentile sorted p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f: estimate %d >= exact %d" p est exact)
        true (est >= exact);
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f: estimate %d within 12.5%% of exact %d" p est exact)
        true
        (float_of_int est <= (1.125 *. float_of_int exact) +. 1.))
    [ 25.; 50.; 75.; 90.; 99.; 100. ]

let test_histogram_bucket_geometry () =
  (* Every value maps to a bucket whose [bounds] contain it, and the
     bucket index is monotone in the value. *)
  let prev = ref (-1) in
  for v = 0 to 5_000 do
    let idx = Histogram.index v in
    let lo, hi = Histogram.bounds idx in
    if not (lo <= v && v <= hi) then
      Alcotest.failf "value %d outside bucket %d = [%d,%d]" v idx lo hi;
    if idx < !prev then Alcotest.failf "index not monotone at %d" v;
    prev := idx
  done

let test_histogram_negative_clamps () =
  let reg = fresh () in
  let h = Registry.histogram reg "neg" in
  Histogram.observe h (-5);
  Alcotest.(check int) "clamped to 0" 0 (Histogram.max h);
  Alcotest.(check int) "count 1" 1 (Histogram.count h)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let reg = fresh () in
  let clock = Cycles.Clock.create () in
  let outer = Span.create ~clock (Registry.histogram reg "outer") in
  let inner = Span.create ~clock (Registry.histogram reg "inner") in
  Span.with_ outer (fun () ->
      Cycles.Clock.charge clock (Fixed 30);
      Span.with_ inner (fun () -> Cycles.Clock.charge clock (Fixed 40));
      Cycles.Clock.charge clock (Fixed 30));
  let oh = Registry.histogram reg "outer" and ih = Registry.histogram reg "inner" in
  Alcotest.(check int) "outer count" 1 (Histogram.count oh);
  Alcotest.(check int) "inner count" 1 (Histogram.count ih);
  Alcotest.(check int) "outer sum = 100" 100 (Histogram.sum oh);
  Alcotest.(check int) "inner sum = 40" 40 (Histogram.sum ih)

let test_span_records_on_exception () =
  let reg = fresh () in
  let clock = Cycles.Clock.create () in
  let sp = Span.create ~clock (Registry.histogram reg "panicky") in
  (try
     Span.with_ sp (fun () ->
         Cycles.Clock.charge clock (Fixed 77);
         raise Exit)
   with Exit -> ());
  let h = Registry.histogram reg "panicky" in
  Alcotest.(check int) "recorded despite raise" 1 (Histogram.count h);
  Alcotest.(check int) "elapsed recorded" 77 (Histogram.sum h)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_same_handle () =
  let reg = fresh () in
  let a = Registry.counter reg "x.y" in
  let b = Registry.counter reg "x.y" in
  Alcotest.(check bool) "same physical handle" true (a == b);
  Counter.incr a;
  Alcotest.(check int) "visible through either" 1 (Counter.value b)

let test_registry_kind_mismatch () =
  let reg = fresh () in
  ignore (Registry.counter reg "x");
  Alcotest.check_raises "histogram over counter rejected"
    (Invalid_argument "Registry: x is registered as a counter, not a histogram") (fun () ->
      ignore (Registry.histogram reg "x"))

let test_registry_metrics_sorted () =
  let reg = fresh () in
  ignore (Registry.counter reg "zeta");
  ignore (Registry.counter reg "alpha");
  ignore (Registry.gauge reg "mid");
  let names = List.map fst (Registry.metrics reg) in
  Alcotest.(check (list string)) "sorted" [ "alpha"; "mid"; "zeta" ] names

let test_registry_sum_matching () =
  let reg = fresh () in
  Counter.add (Registry.counter reg "sfi.a.invocations") 3;
  Counter.add (Registry.counter reg "sfi.b.invocations") 4;
  Counter.add (Registry.counter reg "sfi.a.panics") 9;
  Counter.add (Registry.counter reg "net.a.invocations") 100;
  Alcotest.(check int) "prefix+suffix sum" 7
    (Registry.sum_matching reg ~prefix:"sfi." ~suffix:".invocations")

let test_scope_naming () =
  let reg = fresh () in
  let scope = Scope.v reg "sfi.pd3" in
  let c = Scope.counter scope "invocations" in
  Counter.incr c;
  Alcotest.(check int) "resolves the dotted name" 1
    (Counter.value (Registry.counter reg "sfi.pd3.invocations"));
  Alcotest.check_raises "empty prefix rejected" (Invalid_argument "Scope.v: empty prefix")
    (fun () -> ignore (Scope.v reg ""))

let test_snapshot_capture () =
  let reg = fresh () in
  Counter.add (Registry.counter reg "c") 5;
  Histogram.observe (Registry.histogram reg "h") 10;
  let snap = Snapshot.capture reg in
  (match List.assoc_opt "c" snap with
  | Some (Snapshot.Counter_v 5) -> ()
  | _ -> Alcotest.fail "counter snapshot");
  (match List.assoc_opt "h" snap with
  | Some (Snapshot.Histogram_v s) ->
    Alcotest.(check int) "hist count" 1 s.Snapshot.h_count;
    Alcotest.(check int) "hist sum" 10 s.Snapshot.h_sum
  | _ -> Alcotest.fail "histogram snapshot");
  (* The snapshot is a copy: later recording does not mutate it. *)
  Counter.add (Registry.counter reg "c") 100;
  match List.assoc_opt "c" snap with
  | Some (Snapshot.Counter_v 5) -> ()
  | _ -> Alcotest.fail "snapshot mutated by later recording"

let test_render_empty () =
  let reg = fresh () in
  Alcotest.(check bool) "placeholder for empty registry" true
    (String.length (Render.to_string reg) > 0
    && String.length (Render.to_string reg) < 120)

(* ------------------------------------------------------------------ *)
(* Cross-checks against the experiments                                *)
(* ------------------------------------------------------------------ *)

(* E1 / fig2: the pipeline arithmetic must tie out against the
   telemetry exactly. Three identically-seeded environments run per
   batch size (direct, isolated, maglev), b = 20 warm-up + 100
   measured batches each; [n] batch sizes, [p] packets per batch
   summed over them. *)
let test_fig2_cross_check () =
  let reg = fresh () in
  let b = 20 + 100 in
  let rows = Experiments.Fig2.run ~telemetry:reg in
  Alcotest.(check int) "nine rows" 9 (List.length rows);
  let n = List.length rows in
  let p = List.fold_left (fun acc (r : Experiments.Fig2.row) -> acc + r.batch) 0 rows in
  (* Only the isolated env dispatches through rrefs: 5 null stages x b
     batches per size. *)
  Alcotest.(check int) "sfi.null.invocations = 5bn"
    (5 * b * n)
    (Counter.value (Registry.counter reg "sfi.null.invocations"));
  (* All three envs feed b batches of each size to their pipelines. *)
  Alcotest.(check int) "packets_in = 3bp"
    (3 * b * p)
    (Counter.value (Registry.counter reg "netstack.pipeline.packets_in"));
  Alcotest.(check int) "nic rx = 3bp"
    (3 * b * p)
    (Counter.value (Registry.counter reg "netstack.nic.rx_packets"));
  (* The null stage runs 5x per batch in the direct env and 5x in the
     isolated env; the maglev env has no null stage. *)
  Alcotest.(check int) "null processed = 10bp"
    (10 * b * p)
    (Counter.value (Registry.counter reg "netstack.stage.null.processed"));
  (* Crafted packets have valid checksums and ttl 64; nothing drops. *)
  Alcotest.(check int) "no stage drops" 0
    (Registry.sum_matching reg ~prefix:"netstack.stage." ~suffix:".drops");
  Alcotest.(check int) "no failed batches" 0
    (Counter.value (Registry.counter reg "netstack.pipeline.failed_batches"));
  (* One batch-latency sample per processed batch across the 3 envs. *)
  Alcotest.(check int) "batch_cycles samples = 3bn"
    (3 * b * n)
    (Histogram.count (Registry.histogram reg "netstack.pipeline.batch_cycles"))

(* E3: every trial panics the filter once and recovers it once. *)
let test_recovery_cross_check () =
  let reg = fresh () in
  let trials = 1000 in
  let r = Experiments.Recovery.run ~telemetry:reg in
  Alcotest.(check int) "result trials" trials r.Experiments.Recovery.trials;
  Alcotest.(check int) "recovery span count = trials" trials
    (Histogram.count (Registry.histogram reg "sfi.recovery_cycles"));
  Alcotest.(check int) "panics = trials" trials
    (Counter.value (Registry.counter reg "sfi.fault-injector.panics"));
  Alcotest.(check int) "recoveries = trials" trials
    (Counter.value (Registry.counter reg "sfi.fault-injector.recoveries"));
  Alcotest.(check int) "invocations = trials" trials
    (Counter.value (Registry.counter reg "sfi.fault-injector.invocations"));
  Alcotest.(check int) "failed batches = trials" trials
    (Counter.value (Registry.counter reg "netstack.pipeline.failed_batches"))

(* Two identical runs, each into a fresh registry, must render
   byte-identical tables: neither registry sees the other's traffic. *)
let test_render_deterministic () =
  let run () =
    let reg = fresh () in
    ignore (Experiments.Fig2.run ~telemetry:reg);
    Render.to_string ~title:"fig2" reg
  in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical" a b

(* ------------------------------------------------------------------ *)
(* Concurrency: recording across real OCaml domains                    *)
(* ------------------------------------------------------------------ *)

let test_multicore_no_lost_events () =
  let reg = fresh () in
  let shared = Registry.counter reg "mc.shared" in
  let hist = Registry.histogram reg "mc.hist" in
  let domains = 4 and per_domain = 25_000 in
  let workers =
    List.init domains (fun k ->
        Domain.spawn (fun () ->
            (* Each worker also races to resolve its own named counter
               through the registry's cold path. *)
            let own = Registry.counter reg (Printf.sprintf "mc.worker%d" k) in
            for i = 1 to per_domain do
              Counter.incr shared;
              Counter.incr own;
              Histogram.observe hist ((k * per_domain) + i)
            done))
  in
  List.iter Domain.join workers;
  let total = domains * per_domain in
  Alcotest.(check int) "no lost shared increments" total (Counter.value shared);
  for k = 0 to domains - 1 do
    Alcotest.(check int)
      (Printf.sprintf "worker %d count" k)
      per_domain
      (Counter.value (Registry.counter reg (Printf.sprintf "mc.worker%d" k)))
  done;
  Alcotest.(check int) "no lost histogram samples" total (Histogram.count hist);
  (* A torn bucket update would break the bucket-total invariant. *)
  Alcotest.(check int) "bucket occupancy sums to count" total
    (Array.fold_left ( + ) 0 (Histogram.bucket_counts hist));
  (* Sum/min/max are exact: sum over all (k*per+i). *)
  let expected_sum = ref 0 in
  for k = 0 to domains - 1 do
    for i = 1 to per_domain do
      expected_sum := !expected_sum + (k * per_domain) + i
    done
  done;
  Alcotest.(check int) "sum exact under contention" !expected_sum (Histogram.sum hist);
  Alcotest.(check int) "min exact" 1 (Histogram.min hist);
  Alcotest.(check int) "max exact" total (Histogram.max hist)

(* ------------------------------------------------------------------ *)
(* Per-event cost (A4)                                                 *)
(* ------------------------------------------------------------------ *)

let test_telemetry_overhead_bounded () =
  let rows =
    (Experiments.Ablations.run ~telemetry:(fresh ())).Experiments.Ablations.telemetry
  in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  List.iter
    (fun (r : Experiments.Ablations.tele_row) ->
      if String.length r.Experiments.Ablations.tele_op >= 9
         && String.sub r.tele_op (String.length r.tele_op - 9) 9 = "(charged)"
      then begin
        Alcotest.(check bool)
          (r.tele_op ^ " costs cycles")
          true
          (r.Experiments.Ablations.cycles_per_event > 0.);
        Alcotest.(check bool)
          (r.tele_op ^ " bounded by 100 cycles")
          true
          (r.Experiments.Ablations.cycles_per_event <= 100.)
      end
      else
        Alcotest.(check (float 0.0))
          (r.tele_op ^ " is free")
          0.0 r.Experiments.Ablations.cycles_per_event)
    rows

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [
      ( "counter-gauge",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter monotonic" `Quick test_counter_monotonic;
          Alcotest.test_case "gauge both ways" `Quick test_gauge_moves_both_ways;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "small values exact" `Quick test_histogram_small_values_exact;
          Alcotest.test_case "quantiles vs sorted reference" `Quick
            test_histogram_quantiles_vs_reference;
          Alcotest.test_case "bucket geometry" `Quick test_histogram_bucket_geometry;
          Alcotest.test_case "negative clamps" `Quick test_histogram_negative_clamps;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "records on exception" `Quick test_span_records_on_exception;
        ] );
      ( "registry",
        [
          Alcotest.test_case "same handle" `Quick test_registry_same_handle;
          Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "metrics sorted" `Quick test_registry_metrics_sorted;
          Alcotest.test_case "sum matching" `Quick test_registry_sum_matching;
          Alcotest.test_case "scope naming" `Quick test_scope_naming;
          Alcotest.test_case "snapshot capture" `Quick test_snapshot_capture;
          Alcotest.test_case "render empty" `Quick test_render_empty;
        ] );
      ( "cross-checks",
        [
          Alcotest.test_case "fig2 counts tie out" `Quick test_fig2_cross_check;
          Alcotest.test_case "recovery counts tie out" `Quick test_recovery_cross_check;
          Alcotest.test_case "stats render deterministic" `Quick test_render_deterministic;
        ] );
      ( "multicore",
        [ Alcotest.test_case "no lost events, no torn buckets" `Quick test_multicore_no_lost_events ] );
      ( "overhead",
        [ Alcotest.test_case "per-event cost bounded" `Quick test_telemetry_overhead_bounded ] );
    ]
