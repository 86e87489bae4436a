let default_funcs = 500
let default_depth = 10
let default_edits = 5
let default_iters = 3
let default_seed = 17L

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, (Unix.gettimeofday () -. t0) *. 1e3)

(* Bust Summary's per-instance memo: a fresh record is a fresh
   instance, so a Compositional verify on it really rebuilds every
   summary — the honest cold baseline. *)
let fresh_instance (p : Ifc.Ast.program) = { p with Ifc.Ast.main = p.Ifc.Ast.main }

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "Reverify: %s: %s" what e)

let verdict_str (r : Ifc.Verifier.report) =
  match r.Ifc.Verifier.verdict with
  | Ifc.Verifier.Verified -> "VERIFIED"
  | Ifc.Verifier.Rejected -> "REJECTED"

(* The byte-identity oracle: render the report with the fields that
   legitimately differ between a cached and a cold run (strategy name,
   transfer count) normalized away. What remains — verdict, ownership
   errors, findings — must match byte-for-byte. *)
let report_body (r : Ifc.Verifier.report) =
  Format.asprintf "%a" Ifc.Verifier.pp_report
    { r with Ifc.Verifier.strategy = Ifc.Verifier.Compositional; transfers = 0 }

type round = {
  r_round : int;
  r_edited : int;        (* functions the edit script touched *)
  r_cone : int;          (* edited + transitive callers *)
  r_stats : Ifc.Summary_cache.stats;
  r_cold_transfers : int;
  r_verdict : string;
  r_findings : int;
  r_cold_equal : bool;
  r_cone_ok : bool;      (* recomputed <= cone *)
}

type stats = {
  s_funcs : int;
  s_depth : int;
  s_stmts : int;
  s_cold : Ifc.Summary_cache.stats;
  s_cold_verdict : string;
  s_rounds : round list;
  s_telemetry : Telemetry.Registry.t;
}

let speedup cold warm = if warm > 0 then float_of_int cold /. float_of_int warm else infinity

let run_stats ?(funcs = default_funcs) ?(depth = default_depth) ?(edits = default_edits)
    ?(iters = default_iters) ?(seed = default_seed) () =
  let spec = { Ifc.Gen.default with Ifc.Gen.funcs; depth; seed } in
  let program = Ifc.Gen.generate spec in
  let reg = Telemetry.Registry.create () in
  let cache = Ifc.Summary_cache.create ~telemetry:reg () in
  let cold_report, cold_stats = ok "cold reverify" (Ifc.Verifier.reverify cache program) in
  let rounds = ref [] in
  let p = ref program in
  for i = 1 to iters do
    let edit_seed = Int64.add seed (Int64.of_int (1000 * i)) in
    let edited_p, edited = Ifc.Gen.edit ~seed:edit_seed ~edits spec !p in
    p := edited_p;
    let cone = Ifc.Gen.transitive_callers edited_p edited in
    let warm_report, warm_stats =
      ok "warm reverify" (Ifc.Verifier.reverify cache edited_p)
    in
    (* From-scratch run on the same edited program (fresh instance, so
       the per-instance memo cannot help it). *)
    let cold_r =
      ok "cold compositional"
        (Ifc.Verifier.verify ~strategy:Ifc.Verifier.Compositional (fresh_instance edited_p))
    in
    rounds :=
      {
        r_round = i;
        r_edited = List.length edited;
        r_cone = List.length cone;
        r_stats = warm_stats;
        r_cold_transfers = cold_r.Ifc.Verifier.transfers;
        r_verdict = verdict_str warm_report;
        r_findings = List.length warm_report.Ifc.Verifier.findings;
        r_cold_equal = String.equal (report_body warm_report) (report_body cold_r);
        r_cone_ok = warm_stats.Ifc.Summary_cache.recomputed <= List.length cone;
      }
      :: !rounds
  done;
  {
    s_funcs = funcs;
    s_depth = depth;
    s_stmts = Ifc.Ast.stmt_count program;
    s_cold = cold_stats;
    s_cold_verdict = verdict_str cold_report;
    s_rounds = List.rev !rounds;
    s_telemetry = reg;
  }

let print_stats s =
  Printf.printf
    "E21: incremental summary-cached reverification (%d functions in %d-deep chains, %d stmts)\n"
    s.s_funcs s.s_depth s.s_stmts;
  let c = s.s_cold in
  Printf.printf "cold: hits=%d misses=%d recomputed=%d transfers=%d verdict=%s\n"
    c.Ifc.Summary_cache.hits c.Ifc.Summary_cache.misses c.Ifc.Summary_cache.recomputed
    c.Ifc.Summary_cache.transfers s.s_cold_verdict;
  Table.print
    ~header:
      [
        "round"; "edited"; "cone"; "hits"; "recomputed"; "warm transfers"; "cold transfers";
        "speedup"; "verdict"; "findings"; "cold-equal"; "cone-bound";
      ]
    (List.map
       (fun r ->
         let w = r.r_stats in
         [
           Table.fi r.r_round; Table.fi r.r_edited; Table.fi r.r_cone;
           Table.fi w.Ifc.Summary_cache.hits; Table.fi w.Ifc.Summary_cache.recomputed;
           Table.fi w.Ifc.Summary_cache.transfers; Table.fi r.r_cold_transfers;
           Table.ff ~decimals:1 (speedup r.r_cold_transfers w.Ifc.Summary_cache.transfers) ^ "x";
           r.r_verdict; Table.fi r.r_findings; Table.fb r.r_cold_equal; Table.fb r.r_cone_ok;
         ])
       s.s_rounds);
  let min_speedup =
    List.fold_left
      (fun acc r ->
        min acc (speedup r.r_cold_transfers r.r_stats.Ifc.Summary_cache.transfers))
      infinity s.s_rounds
  in
  let all_equal = List.for_all (fun r -> r.r_cold_equal) s.s_rounds in
  let all_bounded = List.for_all (fun r -> r.r_cone_ok) s.s_rounds in
  Printf.printf
    "summary: min transfer-speedup %.1fx (target >= 10x) %s; cold-equivalent %s; dirty cone \
     bounds recomputation %s\n"
    min_speedup
    (if min_speedup >= 10. then "[ok]" else "[MISS]")
    (if all_equal then "[ok]" else "[MISS]")
    (if all_bounded then "[ok]" else "[MISS]");
  print_newline ();
  Telemetry.Render.print ~title:"reverify telemetry" s.s_telemetry;
  print_endline
    "  paper: no aliasing => a summary depends only on the body + callee summaries,\n\
    \         so a content fingerprint is a complete invalidation record (DESIGN.md s16)"

(* --- Wall-clock section ---------------------------------------------- *)

type wall = {
  w_funcs : int;
  w_edits : int;
  w_cold_ms : float;
  w_warm_ms : float;
  w_speedup : float;
  w_equal : bool;
}

let run_wall ?(funcs = default_funcs) ?(depth = default_depth) ?(edits = default_edits)
    ?(iters = 5) ?(seed = default_seed) () =
  let spec = { Ifc.Gen.default with Ifc.Gen.funcs; depth; seed } in
  let program = Ifc.Gen.generate spec in
  let reg = Telemetry.Registry.create () in
  let cache = Ifc.Summary_cache.create ~telemetry:reg () in
  ignore (ok "warmup" (Ifc.Verifier.reverify cache program));
  let cold_ms = ref infinity in
  let warm_ms = ref infinity in
  let equal = ref true in
  let p = ref program in
  for i = 1 to iters do
    let edited_p, _ = Ifc.Gen.edit ~seed:(Int64.add seed (Int64.of_int (7000 + i))) ~edits spec !p in
    p := edited_p;
    let warm, ms =
      time_ms (fun () -> ok "warm reverify" (Ifc.Verifier.reverify cache edited_p))
    in
    warm_ms := min !warm_ms ms;
    let cold, ms =
      time_ms (fun () ->
          ok "cold compositional"
            (Ifc.Verifier.verify ~strategy:Ifc.Verifier.Compositional (fresh_instance edited_p)))
    in
    cold_ms := min !cold_ms ms;
    equal := !equal && String.equal (report_body (fst warm)) (report_body cold)
  done;
  {
    w_funcs = funcs;
    w_edits = edits;
    w_cold_ms = !cold_ms;
    w_warm_ms = !warm_ms;
    w_speedup = (if !warm_ms > 0. then !cold_ms /. !warm_ms else infinity);
    w_equal = !equal;
  }

let print_wall w =
  Printf.printf
    "wall-clock reverification (%d-function generated program, %d bodies edited per round,\n\
    \  best of repeated rounds):\n"
    w.w_funcs w.w_edits;
  Printf.printf "  cold whole-program compositional: %8.2f ms\n" w.w_cold_ms;
  Printf.printf "  warm summary-cached reverify:     %8.2f ms (reports vs cold: %s)\n"
    w.w_warm_ms
    (if w.w_equal then "identical" else "DIVERGED");
  Printf.printf "  speedup: %.1fx (target: >= 10x) %s\n" w.w_speedup
    (if w.w_speedup >= 10. then "[ok]" else "[MISS]")

(* --- Bench rows (bench/wallclock.exe) ----------------------------------- *)

(* Steady-state per-run closures for the Bechamel rows: [cold] pays
   construction + fingerprinting from an empty cache every run; [hit]
   re-fingerprints an unchanged program against a warm cache (pure
   cache-validation + main pass); [warm] edits 1% of bodies before
   every reverify, the E21 workload. *)
let bench_cold () =
  let program = Ifc.Gen.generate Ifc.Gen.default in
  let reg = Telemetry.Registry.create () in
  fun () ->
    ignore
      (ok "bench cold" (Ifc.Summary_cache.reverify (Ifc.Summary_cache.create ~telemetry:reg ()) program))

let bench_hit () =
  let program = Ifc.Gen.generate Ifc.Gen.default in
  let reg = Telemetry.Registry.create () in
  let cache = Ifc.Summary_cache.create ~telemetry:reg () in
  ignore (ok "bench hit warmup" (Ifc.Summary_cache.reverify cache program));
  fun () -> ignore (ok "bench hit" (Ifc.Summary_cache.reverify cache program))

let bench_warm ?(edits = default_edits) () =
  let spec = Ifc.Gen.default in
  let program = Ifc.Gen.generate spec in
  let reg = Telemetry.Registry.create () in
  let cache = Ifc.Summary_cache.create ~telemetry:reg () in
  ignore (ok "bench warm warmup" (Ifc.Summary_cache.reverify cache program));
  let p = ref program in
  let k = ref 0 in
  fun () ->
    incr k;
    let edited_p, _ = Ifc.Gen.edit ~seed:(Int64.of_int !k) ~edits spec !p in
    p := edited_p;
    ignore (ok "bench warm" (Ifc.Summary_cache.reverify cache edited_p))
