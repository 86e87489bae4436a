(* Tests for the cycle-cost substrate: PRNG, statistics, cache simulator,
   virtual clock. *)

open Cycles

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let xs = List.init 8 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 8 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "different seeds differ" false (xs = ys)

let test_rng_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (x >= 0 && x < 17)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 9L in
  for _ = 1 to 10_000 do
    let x = Rng.float rng 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (x >= 0. && x < 3.5)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create 11L in
  let a = Array.init 100 Fun.id in
  let original = Array.copy a in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "same multiset" true (sorted = original);
  Alcotest.(check bool) "actually shuffled" false (a = original)

(* The generator's pin: rng.ml runs SplitMix64 on an unboxed 8-byte
   state, and every entry point must stay bit-identical to the
   textbook Int64 implementation below, with its boxed state field.
   The production code's Rng seeds every traffic trace and
   fault-injection schedule, so any drift here invalidates every golden
   file at once. *)
module Ref_rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    let r = Int64.to_int (Int64.logand (next t) 0x3FFFFFFFFFFFFFFFL) in
    r mod bound

  let float t bound =
    let top53 = Int64.to_int (Int64.shift_right_logical (next t) 11) in
    float_of_int top53 /. 9007199254740992.0 *. bound
end

let ref_seeds = [ 0L; 1L; 42L; 2017L; -1L; Int64.max_int; Int64.min_int; 0xDEADBEEFCAFEL ]

let test_rng_matches_int64_reference () =
  List.iter
    (fun seed ->
      let a = Rng.create seed and r = Ref_rng.create seed in
      for i = 1 to 2_000 do
        let x = Rng.next_int64 a and y = Ref_rng.next r in
        if not (Int64.equal x y) then
          Alcotest.failf "seed %Ld draw %d: rng %Lx vs reference %Lx" seed i x y
      done)
    ref_seeds

(* [int] masks for power-of-two bounds (the per-packet callers) and
   divides otherwise. *)
let int_bounds = [| 1_000_003; 1; 2; 4096; 1 lsl 20 |]

let test_rng_entry_points_match_reference () =
  List.iter
    (fun seed ->
      let a = Rng.create seed and r = Ref_rng.create seed in
      for i = 1 to 2_000 do
        (* Rotate through the derived entry points so state stays in
           lockstep across a mixed call pattern. *)
        match i mod 3 with
        | 0 ->
          Alcotest.(check int64)
            (Printf.sprintf "next_int64 seed=%Ld" seed)
            (Ref_rng.next r) (Rng.next_int64 a)
        | 1 ->
          let bound = int_bounds.(i / 5 mod Array.length int_bounds) in
          Alcotest.(check int)
            (Printf.sprintf "int %d seed=%Ld" bound seed)
            (Ref_rng.int r bound) (Rng.int a bound)
        | _ ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "float seed=%Ld" seed)
            (Ref_rng.float r 3.5) (Rng.float a 3.5)
      done)
    ref_seeds

(* [int] sits on the per-packet path: a boxed [int64] per draw would
   show up in every allocation bound of test_fusion. *)
let test_rng_draws_allocate_nothing () =
  let rng = Rng.create 3L in
  let calls = 1000 in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    sink := !sink + Rng.int rng 4096 + Rng.int rng (1_000_003 + i)
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  if words > 0. then
    Alcotest.failf "Rng.int allocated %.0f minor words over %d calls" words calls

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile s 100.);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile s 50.)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 0.)) "mean 0" 0. (Stats.mean s);
  Alcotest.check_raises "percentile raises" (Invalid_argument "Stats.percentile: empty accumulator")
    (fun () -> ignore (Stats.percentile s 50.))

let test_stats_percentile_interleaved () =
  (* Sorting must be re-done after adds that follow a percentile query. *)
  let s = Stats.create () in
  List.iter (Stats.add s) [ 5.; 1.; 3. ];
  Alcotest.(check (float 1e-9)) "median of 3" 3. (Stats.percentile s 50.);
  List.iter (Stats.add s) [ 0.; 10. ];
  Alcotest.(check (float 1e-9)) "median of 5" 3. (Stats.percentile s 50.);
  Alcotest.(check (float 1e-9)) "p100 = max" 10. (Stats.percentile s 100.)

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 42.;
  Alcotest.(check (float 1e-9)) "p50 singleton" 42. (Stats.percentile s 50.)

let prop_stats_mean =
  QCheck.Test.make ~name:"stats mean matches list mean" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let expected = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      abs_float (Stats.mean s -. expected) < 1e-6 *. (1. +. abs_float expected))

let prop_stats_percentile_bounds =
  QCheck.Test.make ~name:"percentiles stay within [min,max]" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 100) (float_range (-1e6) 1e6))
        (float_range 0. 100.))
    (fun (xs, p) ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let v = Stats.percentile s p in
      v >= List.fold_left min infinity xs && v <= List.fold_left max neg_infinity xs)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_cold_then_hot () =
  let c = Cache.create Cache.default_config in
  Alcotest.(check bool) "cold miss" true (Cache.access c 0x10000 = Dram);
  Alcotest.(check bool) "now hot" true (Cache.access c 0x10000 = L1);
  (* Same line, different byte. *)
  Alcotest.(check bool) "same line hot" true (Cache.access c 0x10030 = L1)

let test_cache_l1_eviction_falls_to_l2 () =
  let c = Cache.create Cache.default_config in
  let cfg = Cache.default_config in
  let line = cfg.line_bytes in
  (* Touch one target line, then blow L1 (same set) with conflicting lines. *)
  let target = 0x100000 in
  ignore (Cache.access c target);
  (* Lines mapping to the same L1 set are spaced by sets*line bytes. *)
  let stride = cfg.l1_sets * line in
  for i = 1 to cfg.l1_ways + 2 do
    ignore (Cache.access c (target + (stride * i)))
  done;
  (* The target was evicted from L1 but (with many more L2 sets) still
     lives in L2. *)
  Alcotest.(check bool) "fell to L2" true (Cache.access c target = L2)

let test_cache_flush () =
  let c = Cache.create Cache.default_config in
  ignore (Cache.access c 0x42000);
  Cache.flush c;
  Alcotest.(check bool) "flushed" true (Cache.access c 0x42000 = Dram)

let test_cache_counters () =
  let c = Cache.create Cache.default_config in
  ignore (Cache.access c 0x1000);
  ignore (Cache.access c 0x1000);
  ignore (Cache.access c 0x2000);
  let k = Cache.counters c in
  Alcotest.(check int) "dram" 2 k.dram_accesses;
  Alcotest.(check int) "l1" 1 k.l1_hits;
  Cache.reset_counters c;
  let k = Cache.counters c in
  Alcotest.(check int) "reset" 0 (k.l1_hits + k.l2_hits + k.l3_hits + k.dram_accesses)

(* [repeat_hit] replays the previous access, so it has nothing to
   replay on a fresh cache or right after a flush. *)
let test_cache_repeat_hit_needs_access () =
  let c = Cache.create Cache.default_config in
  let raises what =
    Alcotest.check_raises what (Invalid_argument "Cache.repeat_hit: no preceding access")
      (fun () -> Cache.repeat_hit c 1)
  in
  raises "fresh cache";
  ignore (Cache.access c 0x1000);
  Cache.repeat_hit c 3;
  Alcotest.(check int) "replayed hits" 3 (Cache.counters c).l1_hits;
  Cache.flush c;
  raises "after flush"

(* A way mask is 16 bits wide, and a level needs a set and a way. *)
let test_cache_create_rejects_geometry () =
  List.iter
    (fun (what, (config : Cache.config)) ->
      match Cache.create config with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("17-way L3", { Cache.default_config with l3_ways = 17 });
      ("0-way L1", { Cache.default_config with l1_ways = 0 });
      ("0-set L2", { Cache.default_config with l2_sets = 0 });
    ];
  ignore (Cache.create { Cache.default_config with l2_ways = 16 })

let test_cache_working_set_hit_rates () =
  (* A working set that fits L1 should yield pure L1 hits on the second
     pass; one that exceeds L1 but fits L2 should show L2 hits. *)
  let pass c base n =
    for i = 0 to n - 1 do
      ignore (Cache.access c (base + (i * 64)))
    done
  in
  (* 16 KiB = 256 lines: fits 32 KiB L1. *)
  let c = Cache.create Cache.default_config in
  pass c 0x100000 256;
  Cache.reset_counters c;
  pass c 0x100000 256;
  let k = Cache.counters c in
  Alcotest.(check int) "all L1" 256 k.l1_hits;
  (* 128 KiB = 2048 lines: exceeds L1, fits 256 KiB L2. *)
  let c = Cache.create Cache.default_config in
  pass c 0x100000 2048;
  Cache.reset_counters c;
  pass c 0x100000 2048;
  let k = Cache.counters c in
  Alcotest.(check int) "no DRAM on second pass" 0 k.dram_accesses;
  Alcotest.(check bool) "mostly L2" true (k.l2_hits > 1024)

let prop_cache_deterministic =
  QCheck.Test.make ~name:"cache is deterministic" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 1_000_000))
    (fun addrs ->
      let run () =
        let c = Cache.create Cache.default_config in
        List.map (fun a -> Cache.access c a) addrs
      in
      run () = run ())

(* Differential against test/cache_oracle.ml. Traces are drawn to land
   on every shortcut the production simulator takes: same-line
   repeats and [repeat_hit], strides that alias one set at each level,
   lines 1024 apart (one memo slot), multi-line runs and [flush]. *)
type op =
  | Access of int  (** one access at this address *)
  | Again of int  (** the previous access's line again, at this byte offset *)
  | Lines of int * int  (** [access_lines] from this address's line, this many lines *)
  | Repeat of int  (** [repeat_hit] *)
  | Flush

let show_op = function
  | Access a -> Printf.sprintf "Access 0x%x" a
  | Again o -> Printf.sprintf "Again %d" o
  | Lines (a, n) -> Printf.sprintf "Lines (0x%x, %d)" a n
  | Repeat n -> Printf.sprintf "Repeat %d" n
  | Flush -> "Flush"

let gen_trace (c : Cache.config) =
  let open QCheck.Gen in
  let lb = c.line_bytes in
  let strides = [| lb; c.l1_sets * lb; c.l2_sets * lb; c.l3_sets * lb; 1024 * lb |] in
  let addr =
    let* base = oneofl [ 0x1000; 0x40000; 0x123440 ] in
    let* stride = oneofa strides in
    let* k = int_bound 23 in
    let+ off = int_bound (lb - 1) in
    base + (stride * k) + off
  in
  let op =
    frequency
      [
        (30, map (fun a -> Access a) addr);
        (15, map (fun o -> Again o) (int_bound (lb - 1)));
        (10, map2 (fun a n -> Lines (a, n)) addr (int_bound 40));
        (5, map (fun n -> Repeat n) (int_bound 5));
        (1, return Flush);
      ]
  in
  list_size (int_range 1 1500) op

let small_config =
  { Cache.line_bytes = 64; l1_sets = 4; l1_ways = 2; l2_sets = 8; l2_ways = 4; l3_sets = 16;
    l3_ways = 4 }

(* Neither the line size nor the set counts are powers of two. *)
let odd_config =
  { Cache.line_bytes = 48; l1_sets = 3; l1_ways = 2; l2_sets = 6; l2_ways = 3; l3_sets = 10;
    l3_ways = 5 }

let prop_cache_matches_oracle name (config : Cache.config) ~count =
  let arb =
    QCheck.make (gen_trace config)
      ~print:(fun ops -> String.concat "; " (List.map show_op ops))
      ~shrink:QCheck.Shrink.list
  in
  QCheck.Test.make ~name:("cache = textbook oracle (" ^ name ^ ")") ~count arb (fun ops ->
      let c = Cache.create config and o = Cache_oracle.create config in
      let m = Cost_model.default in
      let lb = config.line_bytes in
      let prev = ref 0 in
      List.iteri
        (fun i op ->
          let fail fmt = QCheck.Test.fail_reportf ("op %d (%s): " ^^ fmt) i (show_op op) in
          let level_of a =
            prev := a;
            let got = Cache.access c a and want = Cache_oracle.access o a in
            if got <> want then fail "hit level differs from the oracle's"
          in
          (match op with
          | Access a -> level_of a
          | Again off -> level_of ((!prev / lb * lb) + off)
          | Lines (a, n) ->
            let line = a / lb in
            let got = Cache.access_lines c m line ~n
            and want = Cache_oracle.access_lines o m line ~n in
            if n > 0 then prev := (line + n - 1) * lb;
            if got <> want then fail "charged %d cycles, oracle %d" got want
          | Repeat n ->
            let outcome f = match f () with () -> "ok" | exception Invalid_argument _ -> "raised" in
            let got = outcome (fun () -> Cache.repeat_hit c n)
            and want = outcome (fun () -> Cache_oracle.repeat_hit o n) in
            if got <> want then fail "repeat_hit %s, oracle %s" got want
          | Flush ->
            Cache.flush c;
            Cache_oracle.flush o);
          if Cache.counters c <> Cache_oracle.counters o then fail "counters differ")
        ops;
      List.iter
        (fun (name, level, sets) ->
          for s = 0 to sets - 1 do
            if Cache.resident c level s <> Cache_oracle.resident o level s then
              QCheck.Test.fail_reportf "%s set %d: ways, LRU order or stamps differ" name s
          done)
        [ ("L1", Cache.L1, config.l1_sets); ("L2", Cache.L2, config.l2_sets);
          ("L3", Cache.L3, config.l3_sets) ];
      true)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_charges () =
  let clk = Clock.create () in
  let m = Clock.model clk in
  Clock.charge clk (Alu 3);
  Alcotest.(check int64) "alu*3" (Int64.of_int (3 * m.alu)) (Clock.now clk);
  Clock.charge clk Atomic_rmw;
  Alcotest.(check int64) "plus atomic"
    (Int64.of_int ((3 * m.alu) + m.atomic_rmw))
    (Clock.now clk)

let test_clock_fixed_and_copy () =
  let clk = Clock.create () in
  Clock.charge clk (Fixed 123);
  Alcotest.(check int64) "fixed" 123L (Clock.now clk);
  let before = Clock.now clk in
  Clock.charge clk (Copy 1000);
  let copied = Int64.sub (Clock.now clk) before in
  let m = Clock.model clk in
  Alcotest.(check int64) "copy cost"
    (Int64.of_int (int_of_float (ceil (1000. *. m.per_byte_copy))))
    copied

let test_clock_touch_latencies () =
  let clk = Clock.create () in
  let m = Clock.model clk in
  let addr = Clock.alloc_addr clk ~bytes:64 in
  let before = Clock.now clk in
  Clock.touch clk addr ~bytes:8;
  Alcotest.(check int64) "cold = DRAM"
    (Int64.of_int m.dram_latency)
    (Int64.sub (Clock.now clk) before);
  let before = Clock.now clk in
  Clock.touch clk addr ~bytes:8;
  Alcotest.(check int64) "hot = L1"
    (Int64.of_int m.l1_latency)
    (Int64.sub (Clock.now clk) before)

let accesses clk =
  let k = Clock.cache_counters clk in
  k.l1_hits + k.l2_hits + k.l3_hits + k.dram_accesses

(* Multi-line touches: [touch] charges every line its byte range
   overlaps, and [touch_lines] equals one single-line [touch] per
   line, on a twin clock. *)
let test_clock_bulk_touches () =
  let clk = Clock.create () in
  let m = Clock.model clk in
  let dram n = Int64.of_int (n * m.dram_latency) in
  let charged f =
    let before = Clock.now clk and n = accesses clk in
    f ();
    (Int64.sub (Clock.now clk) before, accesses clk - n)
  in
  let base = Clock.alloc_addr clk ~bytes:(64 * 64) in
  (* 200 bytes starting mid-line span 4 lines of 64 B. *)
  Alcotest.(check (pair int64 int)) "200 B from mid-line" (dram 4, 4)
    (charged (fun () -> Clock.touch clk (base + 0x20) ~bytes:200));
  Alcotest.(check (pair int64 int)) "8 B across a line boundary" (dram 2, 2)
    (charged (fun () -> Clock.touch clk (base + (8 * 64) - 4) ~bytes:8));
  Alcotest.(check (pair int64 int)) "zero bytes" (0L, 0)
    (charged (fun () -> Clock.touch clk base ~bytes:0));
  Alcotest.(check (pair int64 int)) "touch_lines ~n:0" (0L, 0)
    (charged (fun () -> Clock.touch_lines clk base ~n:0));
  let twin = Clock.create () in
  ignore (Clock.alloc_addr twin ~bytes:(64 * 64));
  Clock.touch twin (base + 0x20) ~bytes:200;
  Clock.touch twin (base + (8 * 64) - 4) ~bytes:8;
  List.iter
    (fun (off, n) ->
      Clock.touch_lines clk (base + off) ~n;
      for j = 0 to n - 1 do
        Clock.touch twin (base + off + (j * 64)) ~bytes:16
      done)
    [ (0, 12); (0x1c0, 40); (0x10, 1); (0, 64) ];
  Alcotest.(check int64) "touch_lines cycles = per-line touches" (Clock.now twin) (Clock.now clk);
  Alcotest.(check bool) "touch_lines counters = per-line touches" true
    (Clock.cache_counters twin = Clock.cache_counters clk)

(* The simulator runs on every simulated load/store; a boxed value per
   call would show in every minor-words bound of test_fusion. *)
let test_clock_touches_allocate_nothing () =
  let clk = Clock.create () in
  let c = Cache.create Cache.default_config in
  let base = Clock.alloc_addr clk ~bytes:(1 lsl 20) in
  let calls = 1000 in
  let round i =
    let a = base + (i * 4160 land 0xFFFFF) in
    Clock.touch clk a ~bytes:100;
    Clock.touch_lines clk a ~n:5;
    ignore (Sys.opaque_identity (Cache.access_line c (a lsr 6)))
  in
  for i = 1 to calls do
    round i
  done;
  let before = Gc.minor_words () in
  for i = 1 to calls do
    round i
  done;
  let words = Gc.minor_words () -. before in
  if words > 0. then
    Alcotest.failf "touch/touch_lines/access_line allocated %.0f minor words over %d rounds" words
      calls

let test_clock_alloc_addr_unique_aligned () =
  let clk = Clock.create () in
  let a = Clock.alloc_addr clk ~bytes:10 in
  let b = Clock.alloc_addr clk ~bytes:100 in
  let c = Clock.alloc_addr clk ~bytes:1 in
  Alcotest.(check bool) "aligned" true
    (a mod 64 = 0 && b mod 64 = 0 && c mod 64 = 0);
  Alcotest.(check bool) "non-overlapping" true
    (b - a >= 64 && c - b >= 128)

let test_clock_measure () =
  let clk = Clock.create () in
  let result, cycles = Clock.measure clk (fun () -> Clock.charge clk (Fixed 77); "ok") in
  Alcotest.(check string) "result" "ok" result;
  Alcotest.(check int64) "cycles" 77L cycles

let test_clock_touch_level_reports () =
  let clk = Clock.create () in
  let addr = Clock.alloc_addr clk ~bytes:64 in
  (* alloc_addr does not touch; first access is DRAM. *)
  Alcotest.(check bool) "cold" true (Clock.touch_level clk addr = Dram);
  Alcotest.(check bool) "hot" true (Clock.touch_level clk addr = L1)

let () =
  let qt = Seed.to_alcotest in
  Alcotest.run "cycles"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "raw stream = Int64 reference" `Quick
            test_rng_matches_int64_reference;
          Alcotest.test_case "derived entry points = Int64 reference" `Quick
            test_rng_entry_points_match_reference;
          Alcotest.test_case "int allocates 0 minor words" `Quick
            test_rng_draws_allocate_nothing;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile interleaved" `Quick test_stats_percentile_interleaved;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          qt prop_stats_mean;
          qt prop_stats_percentile_bounds;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cold then hot" `Quick test_cache_cold_then_hot;
          Alcotest.test_case "L1 eviction falls to L2" `Quick test_cache_l1_eviction_falls_to_l2;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "counters" `Quick test_cache_counters;
          Alcotest.test_case "repeat_hit needs a preceding access" `Quick
            test_cache_repeat_hit_needs_access;
          Alcotest.test_case "create rejects geometries it cannot index" `Quick
            test_cache_create_rejects_geometry;
          Alcotest.test_case "working-set hit rates" `Quick test_cache_working_set_hit_rates;
          qt prop_cache_deterministic;
          qt (prop_cache_matches_oracle "default" Cache.default_config ~count:100);
          qt (prop_cache_matches_oracle "small" small_config ~count:300);
          qt (prop_cache_matches_oracle "odd sizes" odd_config ~count:300);
        ] );
      ( "clock",
        [
          Alcotest.test_case "charges" `Quick test_clock_charges;
          Alcotest.test_case "fixed and copy" `Quick test_clock_fixed_and_copy;
          Alcotest.test_case "touch latencies" `Quick test_clock_touch_latencies;
          Alcotest.test_case "alloc_addr unique+aligned" `Quick test_clock_alloc_addr_unique_aligned;
          Alcotest.test_case "measure" `Quick test_clock_measure;
          Alcotest.test_case "touch_level reports" `Quick test_clock_touch_level_reports;
          Alcotest.test_case "bulk and line-straddling touches" `Quick test_clock_bulk_touches;
          Alcotest.test_case "touch, touch_lines, access_line allocate 0 words" `Quick
            test_clock_touches_allocate_nothing;
        ] );
    ]
