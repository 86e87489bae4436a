type level = L1 | L2 | L3 | Dram


type config = {
  line_bytes : int;
  l1_sets : int;
  l1_ways : int;
  l2_sets : int;
  l2_ways : int;
  l3_sets : int;
  l3_ways : int;
}

let default_config =
  (* 64 B lines; 32 KiB / 64 / 8 = 64 sets; 256 KiB / 64 / 8 = 512 sets;
     8 MiB / 64 / 16 = 8192 sets. *)
  { line_bytes = 64; l1_sets = 64; l1_ways = 8; l2_sets = 512; l2_ways = 8;
    l3_sets = 8192; l3_ways = 16 }

(* A way index mask is 16 bits wide (see [level_state]). *)
let max_ways = 16

(* One level: [tags.(set * ways + way)] holds the line tag or [-1];
   [stamps] holds the LRU timestamp of the corresponding way, [-1]
   while the way is invalid. Tags are native ints — synthetic
   addresses come from the clock's bump allocator and never approach
   2^62, so line numbers always fit, and probing stays unboxed. *)
type level_state = {
  sets : int;
  ways : int;
  set_mask : int;  (* [sets - 1] when [sets] is a power of two, else 0 *)
  tags : int array;
  stamps : int array;
  (* Exact way index: bucket [set + sets * ((line / sets) mod buckets)]
     (the set and the line bits above it) is a 16-bit little-endian
     mask at byte [2 * bucket], with bit [w] set iff way [w] of the set
     holds a line of that bucket. A line lives in at most one way of
     its set, so the ways a probe must compare are exactly its
     bucket's bits — with 16 buckets usually none (a miss decided
     without reading a tag) or one. [fill] keeps it exact: the evicted
     line's bit is cleared and the new line's set. *)
  buckets : int;  (* a power of two *)
  index : Bytes.t;
}

type counters = { l1_hits : int; l2_hits : int; l3_hits : int; dram_accesses : int }

type t = {
  config : config;
  line_shift : int;  (* log2 of [line_bytes] when a power of two, else -1 *)
  l1 : level_state;
  l2 : level_state;
  l3 : level_state;
  mutable tick : int;
  mutable c_l1 : int;
  mutable c_l2 : int;
  mutable c_l3 : int;
  mutable c_dram : int;
  (* Back-to-back accesses to one line are guaranteed L1 hits on the
     way the previous access touched; remembering that way turns the
     repeat (the common case for per-word metadata checks) into a
     stamp refresh without a probe. State transitions are identical to
     the slow path. *)
  mutable last_line : int;
  mutable last_idx : int;
  (* Tag-validated direct-mapped memo of L1-resident lines: entry
     [line land memo_mask] remembers the L1 way index that last held
     [line]. The memo is advisory — a hit is honoured only after
     re-checking [l1.tags.(idx) = line], which is sound because a line
     is only ever installed into its own set and never resides in two
     ways at once, so a validated index IS the way a probe would find.
     Eviction needs no memo maintenance: the overwritten tag fails the
     validation and the access falls back to the indexed probe. It
     stays beside the index because an L1 hit through it takes fewer
     dependent loads, and L1 hits are ~9 in 10 accesses on the packet
     workloads: replaying recorded workload traces, the index alone
     ran 7–13% slower than the old way scans, index and memo together
     ~20% faster. *)
  memo_lines : int array;
  memo_idxs : int array;
}

let memo_slots = 1024
let memo_mask = memo_slots - 1

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* 16 buckets per set, fewer where that keeps a level's index within
   32 KiB: the default L3 gets 2 per set (~8 of its 16 ways to compare
   on a probe instead of 16), so the index adds ~50 KiB per cache
   where 16 buckets would add ~280 KiB, and workloads keep several
   clocks alive. *)
let buckets_for sets =
  let rec go b = if b > 1 && 2 * sets * b > 32768 then go (b / 2) else b in
  go 16

let make_level sets ways =
  if sets < 1 || ways < 1 || ways > max_ways then
    invalid_arg (Printf.sprintf "Cache.create: %d sets of %d ways" sets ways);
  let buckets = buckets_for sets in
  {
    sets;
    ways;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else 0);
    tags = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) (-1);
    buckets;
    index = Bytes.make (2 * sets * buckets) '\000';
  }

let create config =
  {
    config;
    line_shift =
      (if config.line_bytes > 0 && config.line_bytes land (config.line_bytes - 1) = 0 then
         log2 config.line_bytes
       else -1);
    l1 = make_level config.l1_sets config.l1_ways;
    l2 = make_level config.l2_sets config.l2_ways;
    l3 = make_level config.l3_sets config.l3_ways;
    tick = 0;
    c_l1 = 0;
    c_l2 = 0;
    c_l3 = 0;
    c_dram = 0;
    last_line = -1;
    last_idx = -1;
    memo_lines = Array.make memo_slots (-1);
    memo_idxs = Array.make memo_slots 0;
  }

let line_bytes t = t.config.line_bytes

(* Address-to-line with a shift, not a division: the divisor is a
   runtime value, so the compiler cannot strength-reduce it, and a real
   [idiv] per simulated access is measurable. *)
let[@inline] line_of t addr =
  if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.config.line_bytes

(* Hot path: every set count in the default config is a power of two,
   so indexing is a mask, not a division. *)
let[@inline] set_of st line = if st.set_mask <> 0 then line land st.set_mask else line mod st.sets

(* Byte offset of [line]'s bucket in [st.index] (see [level_state]);
   with a power-of-two set count, the low bits of the line. *)
let[@inline] bucket_of st s line =
  if st.set_mask <> 0 then 2 * (line land ((st.sets * st.buckets) - 1))
  else 2 * (s + (st.sets * ((line / st.sets) land (st.buckets - 1))))

(* Way number of the lowest set bit of a nonzero 16-bit mask: de
   Bruijn multiply, no loop, no branch. *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@inline] lowest_way m =
  Char.code (String.get debruijn ((((m land -m) * 0x077CB531) land 0xFFFFFFFF) lsr 27))

(* The array index of the way holding [line] among the candidate ways
   [m] of the set starting at [base], or -1. *)
let rec find_way st base m line =
  if m = 0 then -1
  else
    let i = base + lowest_way m in
    if Array.unsafe_get st.tags i = line then i else find_way st base (m land (m - 1)) line

(* Returns the array index of the way holding [line] (-1 on a miss)
   and, on a hit, refreshes its LRU stamp. *)
let[@inline] probe t st line =
  let s = set_of st line in
  let m = Bytes.get_uint16_le st.index (bucket_of st s line) in
  if m = 0 then -1
  else begin
    (* The first candidate inline: it is usually the only one. *)
    let base = s * st.ways in
    let i = base + lowest_way m in
    let i =
      if Array.unsafe_get st.tags i = line then i
      else find_way st base (m land (m - 1)) line
    in
    if i >= 0 then Array.unsafe_set st.stamps i t.tick;
    i
  end

(* Install [line] in the first way holding the minimal stamp; returns
   the index written. Invalid ways hold stamp -1, below every valid
   stamp (ticks start at 1), so that is the first invalid way if there
   is one and the LRU way otherwise — one scan for both cases. *)
let[@inline never] fill t st line =
  let s = set_of st line in
  let base = s * st.ways in
  (* Branchless strict-min scan: keeps the first way holding the
     minimal stamp without a data-dependent branch per way. *)
  let best = ref 0 in
  let bstamp = ref (Array.unsafe_get st.stamps base) in
  for w = 1 to st.ways - 1 do
    let s = Array.unsafe_get st.stamps (base + w) in
    let m = (s - !bstamp) asr (Sys.int_size - 1) in
    best := (w land m) lor (!best land lnot m);
    bstamp := (s land m) lor (!bstamp land lnot m)
  done;
  let victim = !best in
  let old = Array.unsafe_get st.tags (base + victim) in
  if old >= 0 then begin
    let b = bucket_of st s old in
    Bytes.set_uint16_le st.index b (Bytes.get_uint16_le st.index b land lnot (1 lsl victim))
  end;
  let b = bucket_of st s line in
  Bytes.set_uint16_le st.index b (Bytes.get_uint16_le st.index b lor (1 lsl victim));
  Array.unsafe_set st.tags (base + victim) line;
  Array.unsafe_set st.stamps (base + victim) t.tick;
  base + victim

(* Everything past an L1 miss, out of line so that the hit path the
   clock inlines stays small. *)
let[@inline never] miss t line =
  if probe t t.l2 line >= 0 then begin
    t.c_l2 <- t.c_l2 + 1;
    t.last_idx <- fill t t.l1 line;
    L2
  end
  else if probe t t.l3 line >= 0 then begin
    t.c_l3 <- t.c_l3 + 1;
    t.last_idx <- fill t t.l1 line;
    ignore (fill t t.l2 line);
    L3
  end
  else begin
    t.c_dram <- t.c_dram + 1;
    t.last_idx <- fill t t.l1 line;
    ignore (fill t t.l2 line);
    ignore (fill t t.l3 line);
    Dram
  end

let[@inline] access_line t line =
  t.tick <- t.tick + 1;
  if line = t.last_line then begin
    (* Same line as the previous access: an L1 hit on the same way,
       by construction. Refresh its stamp exactly as [probe] would. *)
    Array.unsafe_set t.l1.stamps t.last_idx t.tick;
    t.c_l1 <- t.c_l1 + 1;
    L1
  end
  else begin
    t.last_line <- line;
    let h = line land memo_mask in
    let midx = Array.unsafe_get t.memo_idxs h in
    if Array.unsafe_get t.memo_lines h = line && Array.unsafe_get t.l1.tags midx = line then begin
      (* Memoised L1 hit: the stamp refresh and counter bump the probe
         would perform on the (unique) way holding [line]. *)
      t.last_idx <- midx;
      Array.unsafe_set t.l1.stamps midx t.tick;
      t.c_l1 <- t.c_l1 + 1;
      L1
    end
    else begin
      let i = probe t t.l1 line in
      let level =
        if i >= 0 then begin
          t.last_idx <- i;
          t.c_l1 <- t.c_l1 + 1;
          L1
        end
        else miss t line
      in
      Array.unsafe_set t.memo_lines h line;
      Array.unsafe_set t.memo_idxs h t.last_idx;
      level
    end
  end

let access t addr = access_line t (line_of t addr)

let latency (m : Cost_model.t) = function
  | L1 -> m.l1_latency
  | L2 -> m.l2_latency
  | L3 -> m.l3_latency
  | Dram -> m.dram_latency

let access_lines t m line ~n =
  let sum = ref 0 in
  for l = line to line + n - 1 do
    sum := !sum + latency m (access_line t l)
  done;
  !sum

(* [repeat_hit t n] replays [n] further accesses to the line the
   previous {!access} touched: each is an L1 hit on the same way, so
   the net state change is [n] tick advances, [n] L1-hit counts and a
   stamp refresh to the final tick — exactly what [n] calls to
   {!access} would do, without [n] probes. *)
let repeat_hit t n =
  if n > 0 then begin
    if t.last_idx < 0 then invalid_arg "Cache.repeat_hit: no preceding access";
    t.tick <- t.tick + n;
    Array.unsafe_set t.l1.stamps t.last_idx t.tick;
    t.c_l1 <- t.c_l1 + n
  end

let resident t level s =
  let st =
    match level with
    | L1 -> t.l1
    | L2 -> t.l2
    | L3 -> t.l3
    | Dram -> invalid_arg "Cache.resident: DRAM"
  in
  List.init st.ways (fun w -> (w, st.tags.(s * st.ways + w), st.stamps.(s * st.ways + w)))
  |> List.filter (fun (_, line, _) -> line <> -1)
  |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)

let flush_level st =
  Array.fill st.tags 0 (Array.length st.tags) (-1);
  Array.fill st.stamps 0 (Array.length st.stamps) (-1);
  Bytes.fill st.index 0 (Bytes.length st.index) '\000'

let flush t =
  t.last_line <- -1;
  t.last_idx <- -1;
  Array.fill t.memo_lines 0 memo_slots (-1);
  flush_level t.l1;
  flush_level t.l2;
  flush_level t.l3

let counters t =
  { l1_hits = t.c_l1; l2_hits = t.c_l2; l3_hits = t.c_l3; dram_accesses = t.c_dram }

let reset_counters t =
  t.c_l1 <- 0;
  t.c_l2 <- 0;
  t.c_l3 <- 0;
  t.c_dram <- 0
