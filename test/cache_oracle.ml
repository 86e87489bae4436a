(* A textbook three-level cache simulator, the reference for
   Cycles.Cache. Every set is a plain array of ways with an LRU stamp
   per way; a probe scans the ways in order, a fill takes the first
   invalid way and otherwise evicts the first way holding the smallest
   stamp, and a miss fills every level above the one that hit
   (inclusive on the way down). It has none of the production
   simulator's shortcuts, so test_cycles diffs the two access by
   access. *)

open Cycles

type level_state = {
  sets : int;
  ways : int;
  tags : int array array;  (* [tags.(set).(way)]: the line, or -1 *)
  stamps : int array array;
}

type t = {
  line_bytes : int;
  levels : level_state array;  (* L1, L2, L3 *)
  mutable tick : int;
  hits : int array;  (* per [Cache.level], in declaration order *)
  mutable last : int option;  (* the line the previous access touched *)
}

let make_level sets ways =
  { sets; ways; tags = Array.make_matrix sets ways (-1); stamps = Array.make_matrix sets ways 0 }

let create (c : Cache.config) =
  {
    line_bytes = c.line_bytes;
    levels =
      [| make_level c.l1_sets c.l1_ways; make_level c.l2_sets c.l2_ways;
         make_level c.l3_sets c.l3_ways |];
    tick = 0;
    hits = Array.make 4 0;
    last = None;
  }

let level_of_rank = [| Cache.L1; Cache.L2; Cache.L3; Cache.Dram |]

let rank_of_level = function Cache.L1 -> 0 | Cache.L2 -> 1 | Cache.L3 -> 2 | Cache.Dram -> 3

let find lv line =
  let ways = lv.tags.(line mod lv.sets) in
  let rec go w = if w = lv.ways then None else if ways.(w) = line then Some w else go (w + 1) in
  go 0

let fill t lv line =
  let s = line mod lv.sets in
  let tags = lv.tags.(s) and stamps = lv.stamps.(s) in
  let rec first_invalid w =
    if w = lv.ways then None else if tags.(w) = -1 then Some w else first_invalid (w + 1)
  in
  let victim =
    match first_invalid 0 with
    | Some w -> w
    | None ->
      let best = ref 0 in
      for w = 1 to lv.ways - 1 do
        if stamps.(w) < stamps.(!best) then best := w
      done;
      !best
  in
  tags.(victim) <- line;
  stamps.(victim) <- t.tick

let access_line t line =
  t.tick <- t.tick + 1;
  let rec probe i =
    if i = 3 then 3
    else
      let lv = t.levels.(i) in
      match find lv line with
      | Some w ->
        lv.stamps.(line mod lv.sets).(w) <- t.tick;
        i
      | None -> probe (i + 1)
  in
  let hit = probe 0 in
  for i = 0 to hit - 1 do
    fill t t.levels.(i) line
  done;
  t.hits.(hit) <- t.hits.(hit) + 1;
  t.last <- Some line;
  level_of_rank.(hit)

let access t addr = access_line t (addr / t.line_bytes)

let latency (m : Cost_model.t) = function
  | Cache.L1 -> m.l1_latency
  | Cache.L2 -> m.l2_latency
  | Cache.L3 -> m.l3_latency
  | Cache.Dram -> m.dram_latency

let access_lines t m line ~n =
  let sum = ref 0 in
  for i = 0 to n - 1 do
    sum := !sum + latency m (access_line t (line + i))
  done;
  !sum

(* [n] more accesses to the previous access's line, one at a time. *)
let repeat_hit t n =
  if n > 0 then
    match t.last with
    | None -> invalid_arg "Cache.repeat_hit: no preceding access"
    | Some line ->
      for _ = 1 to n do
        ignore (access_line t line)
      done

let flush t =
  Array.iter (fun lv -> Array.iter (fun ways -> Array.fill ways 0 lv.ways (-1)) lv.tags) t.levels;
  t.last <- None

let counters t : Cache.counters =
  { l1_hits = t.hits.(0); l2_hits = t.hits.(1); l3_hits = t.hits.(2); dram_accesses = t.hits.(3) }

(* Same contract as [Cache.resident]: the valid ways of one set as
   [(way, line, stamp)], least recently used first. *)
let resident t level s =
  let lv = t.levels.(rank_of_level level) in
  List.init lv.ways (fun w -> (w, lv.tags.(s).(w), lv.stamps.(s).(w)))
  |> List.filter (fun (_, line, _) -> line <> -1)
  |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
