let sum_stats (a : Checkpointable.stats) (b : Checkpointable.stats) : Checkpointable.stats =
  {
    nodes = a.nodes + b.nodes;
    rc_encounters = a.rc_encounters + b.rc_encounters;
    rc_copies = a.rc_copies + b.rc_copies;
    rc_dedup_hits = a.rc_dedup_hits + b.rc_dedup_hits;
    hash_lookups = a.hash_lookups + b.hash_lookups;
    dirty_nodes = a.dirty_nodes + b.dirty_nodes;
    reused_nodes = a.reused_nodes + b.reused_nodes;
  }

let zero_stats : Checkpointable.stats =
  {
    nodes = 0;
    rc_encounters = 0;
    rc_copies = 0;
    rc_dedup_hits = 0;
    hash_lookups = 0;
    dirty_nodes = 0;
    reused_nodes = 0;
  }

let checkpoint_forest ?(workers = 4) desc roots =
  let n = Array.length roots in
  if n = 0 then ([||], zero_stats)
  else begin
    let workers = max 1 (min workers n) in
    let shared = Checkpointable.shared_memo () in
    let slice w =
      let per = (n + workers - 1) / workers in
      let lo = min n (w * per) in
      let hi = min n (lo + per) in
      (lo, hi)
    in
    let work w () =
      let lo, hi = slice w in
      Array.init (hi - lo) (fun i ->
          Checkpointable.checkpoint ~shared desc roots.(lo + i))
    in
    let handles = Array.init workers (fun w -> Domain.spawn (work w)) in
    let results = Array.map Domain.join handles in
    let out = Array.make n None in
    Array.iteri
      (fun w part ->
        let lo, _ = slice w in
        Array.iteri (fun i (copy, _) -> out.(lo + i) <- Some copy) part)
      results;
    let stats =
      Array.fold_left
        (fun acc part -> Array.fold_left (fun acc (_, s) -> sum_stats acc s) acc part)
        zero_stats results
    in
    ( Array.map (function Some c -> c | None -> assert false) out,
      stats )
  end
