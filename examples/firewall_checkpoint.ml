(* Checkpointing a live firewall — the §5 scenario end to end.

     dune exec examples/firewall_checkpoint.exe

   A firewall classifies packet traffic against a trie of shared rules
   while an operator applies a rule update. The update turns out to be
   bad (it blackholes the CDN), so the operator rolls back to the
   snapshot taken before the change — hit counters, rule set and the
   sharing structure all come back. Along the way the three traversal
   strategies are compared on the same database. *)

open Beyond_safety

let ip a b c d =
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.logor
       (Int32.shift_left (Int32.of_int b) 16)
       (Int32.logor (Int32.shift_left (Int32.of_int c) 8) (Int32.of_int d)))

let build_db () =
  let t = Chkpt.Trie.create () in
  let deny_scanners = Chkpt.Trie.make_rule ~id:1 ~description:"deny scanners" Chkpt.Trie.Deny in
  let allow_cdn = Chkpt.Trie.make_rule ~id:2 ~description:"allow cdn" Chkpt.Trie.Allow in
  (* Two distinct prefixes share the scanner rule: Figure 3's shape. *)
  Chkpt.Trie.insert t ~prefix:(ip 10 11 0 0) ~len:16 ~rule:deny_scanners;
  Chkpt.Trie.insert t ~prefix:(ip 172 16 0 0) ~len:12 ~rule:deny_scanners;
  Chkpt.Trie.insert t ~prefix:(ip 151 101 0 0) ~len:16 ~rule:allow_cdn;
  Linear.Rc.drop deny_scanners;
  Linear.Rc.drop allow_cdn;
  t

let classify db ip =
  match Chkpt.Trie.lookup db ip with
  | Some r -> r.Chkpt.Trie.action
  | None -> Chkpt.Trie.Allow (* default accept *)

let count_traffic db ips =
  let dropped = ref 0 and passed = ref 0 in
  List.iter
    (fun addr ->
      match classify db addr with
      | Chkpt.Trie.Deny -> incr dropped
      | Chkpt.Trie.Allow -> incr passed)
    ips;
  (!passed, !dropped)

let sample_traffic =
  [
    ip 151 101 1 69; ip 151 101 65 69; (* cdn *)
    ip 10 11 3 4; ip 172 16 99 1;      (* scanners *)
    ip 8 8 8 8; ip 1 1 1 1;            (* default *)
  ]

let () =
  let db = build_db () in
  let store = Chkpt.Store.create Chkpt.Trie.desc db in

  print_endline "firewall up:";
  let passed, dropped = count_traffic (Chkpt.Store.get store) sample_traffic in
  Printf.printf "  %d passed, %d dropped; %d hits recorded on %d shared rules\n" passed dropped
    (Chkpt.Trie.total_hits (Chkpt.Store.get store))
    (Chkpt.Trie.distinct_rules (Chkpt.Store.get store));

  print_endline "\ntaking a snapshot before the rule update...";
  let stats = Chkpt.Store.snapshot store in
  Printf.printf "  traversed %d nodes, copied %d shared rules once each (%d dedup, %d hash lookups)\n"
    stats.Chkpt.Checkpointable.nodes stats.Chkpt.Checkpointable.rc_copies
    stats.Chkpt.Checkpointable.rc_dedup_hits stats.Chkpt.Checkpointable.hash_lookups;

  print_endline "\napplying the (bad) update: blocking 151.101.0.0/16...";
  let bad = Chkpt.Trie.make_rule ~id:3 ~description:"oops" Chkpt.Trie.Deny in
  Chkpt.Trie.insert (Chkpt.Store.get store) ~prefix:(ip 151 101 0 0) ~len:16 ~rule:bad;
  Linear.Rc.drop bad;
  let passed, dropped = count_traffic (Chkpt.Store.get store) sample_traffic in
  Printf.printf "  now %d passed, %d dropped - the CDN is blackholed!\n" passed dropped;

  print_endline "\nrolling back to the snapshot...";
  ignore (Chkpt.Store.rollback store);
  let passed, dropped = count_traffic (Chkpt.Store.get store) sample_traffic in
  Printf.printf "  %d passed, %d dropped again; sharing preserved: %b\n" passed dropped
    (Chkpt.Trie.sharing_preserved (Chkpt.Store.get store));

  print_endline "\nstrategy comparison on a 500-rule database (alias factor 2):";
  let rng = Cycles.Rng.create 11L in
  let big, _ = Experiments.Ckpt_cost.make_database ~rng ~rules:500 ~alias_factor:2 in
  List.iter
    (fun (name, strategy) ->
      let copy, s = Chkpt.Checkpointable.checkpoint ~strategy Chkpt.Trie.desc big in
      Printf.printf "  %-22s %4d copies, %4d hash lookups, sharing preserved: %b\n" name
        s.Chkpt.Checkpointable.rc_copies s.Chkpt.Checkpointable.hash_lookups
        (Chkpt.Trie.sharing_preserved copy))
    [
      ("naive (Fig. 3b)", Chkpt.Checkpointable.Naive);
      ("address set", Chkpt.Checkpointable.Addr_set);
      ("rc flag (ours)", Chkpt.Checkpointable.Rc_flag);
    ]
