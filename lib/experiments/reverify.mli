(** E21 (extension): incremental summary-cached IFC reverification.

    Generate a deterministic Safe-dialect program with a deep, wide
    call graph ({!Ifc.Gen}), verify it cold through a persistent
    {!Ifc.Summary_cache}, then repeatedly edit ~1% of the function
    bodies and reverify. The deterministic section reports
    hit/miss/recompute counts, the dirty-cone bound, transfer-count
    speedup vs a from-scratch compositional run on the same edited
    program, and whether the cached report is byte-identical to the
    cold one (verdict, ownership errors, findings — the fields that
    may not differ). The wall section races warm reverification
    against cold whole-program compositional analysis with a >= 10x
    target. *)

val default_funcs : int
val default_depth : int
val default_edits : int
val default_iters : int
val default_seed : int64

type round = {
  r_round : int;
  r_edited : int;
  r_cone : int;
  r_stats : Ifc.Summary_cache.stats;
  r_cold_transfers : int;
  r_verdict : string;
  r_findings : int;
  r_cold_equal : bool;
  r_cone_ok : bool;
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

val run_stats :
  ?funcs:int -> ?depth:int -> ?edits:int -> ?iters:int -> ?seed:int64 -> unit -> stats
(** Deterministic in its arguments; the printed block golden-diffs
    byte-for-byte ([test/golden/reverify_stats.txt]). *)

val print_stats : stats -> unit

type wall = {
  w_funcs : int;
  w_edits : int;
  w_cold_ms : float;
  w_warm_ms : float;
  w_speedup : float;
  w_equal : bool;
}

val run_wall :
  ?funcs:int -> ?depth:int -> ?edits:int -> ?iters:int -> ?seed:int64 -> unit -> wall

val print_wall : wall -> unit

(** Per-run closures for the Bechamel rows ([ifc summary cold] /
    [ifc summary hit] / [ifc summary warm-1pct] of
    bench/wallclock.exe). Each returns the staged thunk after doing
    its one-time setup. *)

val bench_cold : unit -> unit -> unit
val bench_hit : unit -> unit -> unit
val bench_warm : ?edits:int -> unit -> unit -> unit
