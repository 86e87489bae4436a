(* ifc-text-edits: the verifier as a developer uses it. The seeded
   500-function corpus ([Ifc.Gen.default]) is kept as an AST; each round
   edits 1% of its functions, renders the result to text, and the timed
   part parses that text and reverifies it against one persistent
   summary cache: edit a file, get a verdict. Reparsing shifts line
   numbers, so far fewer summaries hit than when the AST is handed over
   directly. *)

let edits = 5

(* Rounds per window of the end-to-end figures. *)
let window = 5

let spec ~seed = { Ifc.Gen.default with Ifc.Gen.seed }

(* The byte-identity oracle against a cold run: everything but the
   strategy name and the transfer count must match. *)
let report_body (r : Ifc.Verifier.report) =
  Format.asprintf "%a" Ifc.Verifier.pp_report
    { r with Ifc.Verifier.strategy = Ifc.Verifier.Compositional; transfers = 0 }

(* A fresh record is a fresh instance for Summary's per-instance memo,
   so a cold verify on it rebuilds every summary. *)
let fresh_instance (p : Ifc.Ast.program) = { p with Ifc.Ast.main = p.Ifc.Ast.main }

let parse text =
  match Ifc.Parse.program text with
  | Ok p -> p
  | Error e -> failwith ("ifc-text-edits: parse: " ^ Ifc.Parse.error_to_string e)

let reverify cache p =
  match Ifc.Verifier.reverify cache p with
  | Ok v -> v
  | Error e -> failwith ("ifc-text-edits: reverify: " ^ e)

type state = {
  spec : Ifc.Gen.spec;
  mutable ast : Ifc.Ast.program;
  text0 : string;
  cache : Ifc.Summary_cache.t;
}

let new_cache () = Ifc.Summary_cache.create ~telemetry:(Telemetry.Registry.create ()) ()

let setup ~seed () =
  let spec = spec ~seed in
  let ast = Ifc.Gen.generate spec in
  let text0 = Ifc.Parse.to_source ast in
  let cache = new_cache () in
  ignore (reverify cache (parse text0));
  { spec; ast; text0; cache }

(* The developer's edit: untimed. *)
let edit st i =
  let ast, edited =
    Ifc.Gen.edit ~seed:(Int64.add st.spec.Ifc.Gen.seed (Int64.of_int (1000 * (i + 1)))) ~edits
      st.spec st.ast
  in
  st.ast <- ast;
  (edited, Ifc.Parse.to_source ast)

let cold_equal p (report : Ifc.Verifier.report) =
  match Ifc.Verifier.verify ~strategy:Ifc.Verifier.Compositional (fresh_instance p) with
  | Ok cold -> String.equal (report_body report) (report_body cold)
  | Error _ -> false

type layers = {
  tr : Trace.t;
  id_round : int;
  id_parse : int;
  id_reverify : int;
  id_validate : int;
  id_ownership : int;
  id_summarize : int;
  lat : Measure.Samples.t;
  mutable cone : int;
}

let run ~seed ~budget ~trace r =
  let st, first_setup = Measure.probed_ns (setup ~seed) in
  Report.param r "funcs" (string_of_int st.spec.Ifc.Gen.funcs);
  Report.param r "depth" (string_of_int st.spec.Ifc.Gen.depth);
  Report.param r "stmts" (string_of_int (Ifc.Ast.stmt_count st.ast));
  Report.param r "edits_per_round" (string_of_int edits);
  let layers =
    Option.map
      (fun tr ->
        {
          tr;
          id_round = Trace.layer tr "ifc.round";
          id_parse = Trace.layer tr "ifc.parse";
          id_reverify = Trace.layer tr "ifc.reverify";
          id_validate = Trace.layer tr "ifc.validate";
          id_ownership = Trace.layer tr "ifc.ownership";
          id_summarize = Trace.layer tr "ifc.summarize";
          lat = Measure.Samples.create ();
          cone = 0;
        })
      trace
  in
  let lat = Measure.Samples.create () in
  let hits = ref 0 and recomputed = ref 0 and transfers = ref 0 in
  let plain text =
    let t0 = Measure.now_ns () in
    let p = parse text in
    let v = reverify st.cache p in
    Measure.Samples.add lat (Measure.now_ns () - t0);
    (p, v)
  in
  let traced (t : layers) edited text =
    let tr = t.tr in
    Trace.enter tr t.id_round;
    let p = Trace.span tr t.id_parse (fun () -> parse text) in
    let v = Trace.span tr t.id_reverify (fun () -> reverify st.cache p) in
    Measure.Samples.add t.lat (Trace.leave tr);
    (* Whole-program passes over the same version, outside the round:
       what each verifier layer costs on its own. *)
    ignore (Trace.span tr t.id_validate (fun () -> Ifc.Ast.validate p));
    ignore (Trace.span tr t.id_ownership (fun () -> Ifc.Ownership.check p));
    ignore (Trace.span tr t.id_summarize (fun () -> Ifc.Summary.summarize (fresh_instance p)));
    t.cone <- t.cone + List.length (Ifc.Gen.transitive_callers st.ast edited);
    (p, v)
  in
  let limit = Measure.limit budget ~fixed_count:6 in
  (* Cold start: parse and verify the unedited corpus text with an empty
     cache. *)
  let side =
    Measure.side limit ~first_setup
      ~cold:(fun () ->
        let (report, _), ns = Measure.time_ns (fun () -> reverify (new_cache ()) (parse st.text0)) in
        Report.attempt r (report.Ifc.Verifier.verdict = Ifc.Verifier.Verified);
        ns)
      ~setup:(setup ~seed) ~dispose:ignore
  in
  let start = Measure.now_ns () in
  let i = ref 0 in
  let probe_ns = Measure.Samples.create () in
  while Measure.within limit ~start_ns:start ~i:!i ~window do
    if Option.is_none layers then Measure.side_tick side;
    let edited, text = edit st !i in
    let p, (report, stats) =
      match layers with Some t when !i mod 2 = 1 -> traced t edited text | Some _ | None -> plain text
    in
    hits := !hits + stats.Ifc.Summary_cache.hits;
    recomputed := !recomputed + stats.Ifc.Summary_cache.recomputed;
    transfers := !transfers + stats.Ifc.Summary_cache.transfers;
    Report.attempt r (cold_equal p report);
    incr i;
    if Option.is_none layers && !i mod window = 0 then Measure.Samples.add probe_ns (Measure.host_probe ())
  done;
  let rounds = !i in
  Report.count r "ifc.hits" (float_of_int !hits);
  Report.count r "ifc.recomputed" (float_of_int !recomputed);
  Report.count r "ifc.transfers" (float_of_int !transfers);
  match layers with
  | Some t ->
    let tr = t.tr in
    let traced_rounds = Measure.Samples.length t.lat in
    let ms id = Measure.per (Trace.total_ns tr id) traced_rounds /. 1e6 in
    Report.metric r "ifc.parse_ms" "ms" (ms t.id_parse);
    Report.metric r "ifc.validate_ms" "ms" (ms t.id_validate);
    Report.metric r "ifc.ownership_ms" "ms" (ms t.id_ownership);
    Report.metric r "ifc.summarize_ms" "ms" (ms t.id_summarize);
    Report.metric r "ifc.reverify_ms" "ms" (ms t.id_reverify);
    Report.metric r "ifc.cache_hit_rate" "ratio" (Measure.per !hits (!hits + !recomputed));
    Report.metric r "ifc.recomputed_per_edit" "count" (Measure.per !recomputed rounds);
    Report.metric r "ifc.transfers_per_edit" "count" (Measure.per !transfers rounds);
    Report.metric r "ifc.cone_per_edit" "count" (Measure.per t.cone traced_rounds);
    Report.metric r "layers.sum_ratio" "ratio"
      (Measure.per (Trace.total_ns tr t.id_parse + Trace.total_ns tr t.id_reverify) (Trace.total_ns tr t.id_round));
    Report.metric r "trace.overhead_ratio" "ratio"
      (Measure.per (Measure.Samples.sum t.lat) traced_rounds
      /. Measure.per (Measure.Samples.sum lat) (Measure.Samples.length lat))
  | None ->
    Report.param r "rounds" (string_of_int rounds);
    (* Windows of [window] rounds, as the packet workloads use windows
       of batches: each window's throughput, median and p90 round, scaled
       to the reference host by the probe taken right after the window,
       then the median of each over the windows. *)
    let windows =
      Array.of_list
        (if rounds < window then [ (0, rounds) ]
         else List.init (rounds / window) (fun k -> (k * window, (k + 1) * window)))
    in
    if Measure.Samples.length probe_ns = 0 then Measure.Samples.add probe_ns (Measure.host_probe ());
    let probes = Measure.Samples.to_floats probe_ns in
    Report.series r "window.probe_ns" probes;
    let per_window name unit_ ~scale f =
      Measure.report_windows r ~probes name unit_ ~scale (Array.map f windows)
    in
    let window_q q (lo, hi) = Measure.quantile (Measure.Samples.floats lat ~lo ~hi) q /. 1e3 in
    per_window "throughput" "op/s" ~scale:Measure.rate_at_ref (fun (lo, hi) ->
        Measure.per (hi - lo) (Measure.Samples.sum_range lat ~lo ~hi) *. 1e9);
    per_window "latency_p50_us" "us" ~scale:Measure.time_at_ref (window_q 0.5);
    per_window "latency_p90_us" "us" ~scale:Measure.time_at_ref (window_q 0.9);
    Report.metric r "heap_live_mb" "MB" (Measure.heap_live_mb ());
    Measure.side_finish side r
