type row = {
  rules : int;
  alias_factor : int;
  leaves : int;
  trie_nodes : int;
  naive_copies : int;
  dedup_copies : int;
  addr_set_lookups : int;
  rc_flag_lookups : int;
  naive_overcopy : float;
}

let make_database ~rng ~rules ~alias_factor =
  let t = Chkpt.Trie.create () in
  let used = Hashtbl.create (rules * alias_factor) in
  let leaves = ref [] in
  let fresh_prefix () =
    (* Distinct random /24 prefixes. *)
    let rec draw () =
      let p = Cycles.Rng.int rng (1 lsl 24) in
      if Hashtbl.mem used p then draw ()
      else begin
        Hashtbl.add used p ();
        Int32.shift_left (Int32.of_int p) 8
      end
    in
    draw ()
  in
  for id = 0 to rules - 1 do
    let action = if id mod 3 = 0 then Chkpt.Trie.Deny else Chkpt.Trie.Allow in
    let rule = Chkpt.Trie.make_rule ~id ~description:(Printf.sprintf "rule-%d" id) action in
    for _ = 1 to alias_factor do
      let p = fresh_prefix () in
      Chkpt.Trie.insert t ~prefix:p ~len:24 ~rule;
      leaves := (p, Linear.Rc.clone rule) :: !leaves
    done;
    Linear.Rc.drop rule
  done;
  (t, Array.of_list (List.rev !leaves))

let run () =
  List.map
    (fun (rules, alias_factor) ->
      (* Fresh, identically-seeded database per strategy so the stats
         are directly comparable. *)
      let checkpoint strategy =
        let db, _ = make_database ~rng:(Cycles.Rng.create 99L) ~rules ~alias_factor in
        let _copy, stats = Chkpt.Checkpointable.checkpoint ~strategy Chkpt.Trie.desc db in
        (db, stats)
      in
      let db, naive = checkpoint Chkpt.Checkpointable.Naive in
      let _, addr = checkpoint Chkpt.Checkpointable.Addr_set in
      let _, flag = checkpoint Chkpt.Checkpointable.Rc_flag in
      {
        rules;
        alias_factor;
        leaves = Chkpt.Trie.leaf_count db;
        trie_nodes = Chkpt.Trie.node_count db;
        naive_copies = naive.Chkpt.Checkpointable.rc_copies;
        dedup_copies = flag.Chkpt.Checkpointable.rc_copies;
        addr_set_lookups = addr.Chkpt.Checkpointable.hash_lookups;
        rc_flag_lookups = flag.Chkpt.Checkpointable.hash_lookups;
        naive_overcopy =
          float_of_int naive.Chkpt.Checkpointable.rc_copies
          /. float_of_int (max 1 flag.Chkpt.Checkpointable.rc_copies);
      })
    [ (100, 2); (100, 4); (500, 2); (500, 4); (2000, 2); (2000, 4) ]

let print rows =
  print_endline "E9: checkpoint work vs database size and sharing";
  Table.print
    ~header:
      [ "rules"; "alias"; "leaves"; "trie nodes"; "naive copies"; "dedup copies";
        "addr-set lookups"; "rc-flag lookups"; "naive overcopy" ]
    (List.map
       (fun r ->
         [
           Table.fi r.rules; Table.fi r.alias_factor; Table.fi r.leaves; Table.fi r.trie_nodes;
           Table.fi r.naive_copies; Table.fi r.dedup_copies; Table.fi r.addr_set_lookups;
           Table.fi r.rc_flag_lookups; Table.ff ~decimals:2 r.naive_overcopy ^ "x";
         ])
       rows);
  print_endline
    "  paper: recording visited addresses has \"the obvious downside of increasing\n\
    \         the CPU and memory overhead of checkpointing\"; the Rc flag does not"
