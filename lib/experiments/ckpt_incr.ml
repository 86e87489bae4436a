(* E16: incremental dirty-tracking checkpoints vs the full traversal.

   The fig3 firewall database (500 rules, alias factor 2, /24 prefixes)
   is put under a {!Chkpt.Trie.tracker}; each round replaces the rules
   of a fixed [dirty_pct] fraction of the leaves and syncs the shadow.
   Swept over dirty ratio. The deterministic
   columns (dirty/reused node counts, reuse ratio, restore byte-identity,
   sharing) are golden-diffed in CI; wall-clock columns demonstrate the
   O(dirty) claim (>= 10x at <= 1% dirty). *)

type row = {
  dirty_pct : int;
  leaves_touched : int;
  dirty_nodes : int;
  reused_nodes : int;
  reuse_pct : float;
  ratio_gauge : int;  (* chkpt.dirty_ratio_pct after the last sync *)
  restore_ok : bool;
  sharing_ok : bool;
  incr_ns : float;
  speedup : float;
}

let rules_n = 500
let alias_factor = 2
let seed = 7L
let dirty_pcts = [ 0; 1; 10; 50; 100 ]

(* E9's database at the fig3 size; its leaves come back in insertion
   order, so mutation rounds can deterministically re-target them. *)
let build () =
  Ckpt_cost.make_database ~rng:(Cycles.Rng.create seed) ~rules:rules_n ~alias_factor

(* One mutation round: swap the first [k] leaves between their original
   rule and a per-leaf alternate. The dirty set is the same every
   round, so per-round stats are stable from the second round on —
   which is what makes the golden table independent of iteration
   count. *)
let mutate t prefs alts ~k ~round =
  for i = 0 to k - 1 do
    let p, orig = prefs.(i) in
    let rule = if round land 1 = 1 then alts.(i) else orig in
    Chkpt.Trie.insert t ~prefix:p ~len:24 ~rule
  done

(* Average ns per full-traversal checkpoint of the same database — the
   baseline every incremental row is compared against. *)
let full_baseline_ns ~iters =
  let t, _ = build () in
  let total = ref 0. in
  for _ = 1 to iters do
    let _, s = Table.time (fun () -> Chkpt.Checkpointable.checkpoint Chkpt.Trie.desc t) in
    total := !total +. (s *. 1e9)
  done;
  !total /. float_of_int (max 1 iters)

let run_variant ~iters ~full_ns ~dirty_pct =
  let t, prefs = build () in
  let tracker = Chkpt.Trie.tracker t in
  let registry = Telemetry.Registry.create () in
  let tele = Chkpt.Tele.v registry in
  let k = Array.length prefs * dirty_pct / 100 in
  let alts =
    Array.init k (fun i ->
        Chkpt.Trie.make_rule ~id:(rules_n + i)
          ~description:(Printf.sprintf "alt-%d" i)
          Chkpt.Trie.Allow)
  in
  (* Round 0: the initial full sync that builds the shadow. *)
  ignore (Chkpt.Incr.sync tracker);
  (* Warm round so every alternate cell has a shadow entry; from here
     on each round's stats are identical. *)
  mutate t prefs alts ~k ~round:1;
  let last = ref (Chkpt.Incr.sync tracker) in
  (* Measured rounds: mutation outside the clock, sync inside. *)
  let sync_ns = ref 0. in
  for round = 2 to iters + 1 do
    mutate t prefs alts ~k ~round;
    let stats, s = Table.time (fun () -> Chkpt.Incr.sync tracker) in
    last := stats;
    sync_ns := !sync_ns +. (s *. 1e9);
    Chkpt.Tele.record_incr tele !last
  done;
  let incr_ns = !sync_ns /. float_of_int (max 1 iters) in
  (* Byte-identity: mutate past the last sync (structural swaps plus
     hit bumps), restore, and compare against the render captured at
     the sync point. *)
  let reference = Chkpt.Trie.render t in
  mutate t prefs alts ~k:(max 1 k) ~round:(iters + 2);
  Array.iteri
    (fun i (p, _) -> if i mod 3 = 0 then ignore (Chkpt.Trie.lookup t p))
    prefs;
  ignore (Chkpt.Incr.restore tracker);
  let restore_ok = String.equal reference (Chkpt.Trie.render t) in
  let sharing_ok = Chkpt.Trie.sharing_preserved t in
  let ratio_gauge =
    match Telemetry.Registry.find registry "chkpt.dirty_ratio_pct" with
    | Some (Telemetry.Registry.Gauge g) -> Telemetry.Gauge.value g
    | _ -> 0
  in
  let stats = !last in
  let covered = stats.Chkpt.Checkpointable.nodes in
  {
    dirty_pct;
    leaves_touched = k;
    dirty_nodes = stats.Chkpt.Checkpointable.dirty_nodes;
    reused_nodes = stats.Chkpt.Checkpointable.reused_nodes;
    reuse_pct =
      (if covered = 0 then 0.
       else
         100.
         *. float_of_int stats.Chkpt.Checkpointable.reused_nodes
         /. float_of_int covered);
    ratio_gauge;
    restore_ok;
    sharing_ok;
    incr_ns;
    speedup = (if incr_ns > 0. then full_ns /. incr_ns else 0.);
  }

let run ?(iters = 30) ?(full_iters = 12) () =
  let full_ns = full_baseline_ns ~iters:full_iters in
  ( full_ns,
    List.map (fun dirty_pct -> run_variant ~iters ~full_ns ~dirty_pct) dirty_pcts )

(* Sync is always serial; the mode column stays so the golden keeps
   its shape. *)
let stats_cells r =
  [
    Table.fi r.dirty_pct;
    "serial";
    Table.fi r.leaves_touched;
    Table.fi r.dirty_nodes;
    Table.fi r.reused_nodes;
    Table.ff ~decimals:1 r.reuse_pct;
    Table.fi r.ratio_gauge;
    Table.fb r.restore_ok;
    Table.fb r.sharing_ok;
  ]

let stats_header =
  [
    "dirty%"; "mode"; "leaves"; "dirty nodes"; "reused"; "reuse%"; "ratio gauge";
    "restore ok"; "sharing";
  ]

(* Deterministic columns only — the CI golden (ckpt_incr_stats.txt). *)
let print_stats rows =
  print_endline
    "E16 (extension): incremental checkpoint coverage (deterministic columns)";
  Table.print ~header:stats_header (List.map stats_cells rows)

let print (full_ns, rows) =
  print_endline
    "E16 (extension): incremental dirty-tracking checkpoints vs full traversal\n\
    \  (fig3 database, 500 rules x alias 2; each round swaps the rules of dirty%\n\
    \  of the leaves, then syncs the shadow snapshot)";
  Table.print
    ~header:(stats_header @ [ "sync ns"; "speedup" ])
    (List.map
       (fun r ->
         stats_cells r
         @ [ Table.ff ~decimals:0 r.incr_ns; Table.ff ~decimals:1 r.speedup ^ "x" ])
       rows);
  Printf.printf
    "  full-traversal baseline: %.0f ns/checkpoint\n\
    \  linearity makes the root-path write barrier a complete dirty record: the\n\
    \  shadow reuses every clean subtree, so steady-state snapshots cost O(dirty)\n"
    full_ns;
  List.iter
    (fun r ->
      Printf.printf "  speedup at 1%% dirty: %.1fx %s\n" r.speedup
        (if r.speedup >= 10. then "(target >=10x met)" else "(below 10x target!)"))
    (List.filter (fun r -> r.dirty_pct = 1) rows)
