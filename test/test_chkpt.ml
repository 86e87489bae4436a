(* Tests for the checkpointing library (§5): descriptor combinators,
   the three dedup strategies on the Figure-3 firewall trie, and
   snapshot/rollback via Store. *)

open Chkpt

let rule_opt =
  Alcotest.testable
    (fun ppf -> function
      | None -> Format.pp_print_string ppf "None"
      | Some (r : Trie.rule) -> Format.fprintf ppf "rule %d" r.Trie.rule_id)
    (fun a b ->
      match (a, b) with
      | None, None -> true
      | Some a, Some b -> a.Trie.rule_id = b.Trie.rule_id && a.Trie.action = b.Trie.action
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

let test_scalar_copies () =
  let v, stats = Checkpointable.checkpoint Checkpointable.int 42 in
  Alcotest.(check int) "int" 42 v;
  Alcotest.(check int) "one node" 1 stats.Checkpointable.nodes;
  let s, _ = Checkpointable.checkpoint Checkpointable.string "abc" in
  Alcotest.(check string) "string" "abc" s

let test_containers_copy_deeply () =
  let desc = Checkpointable.(list (mref int)) in
  let original = [ ref 1; ref 2; ref 3 ] in
  let copy, _ = Checkpointable.checkpoint desc original in
  (List.nth copy 0) := 99;
  Alcotest.(check int) "original untouched" 1 !(List.nth original 0);
  (List.nth original 1) := 88;
  Alcotest.(check int) "copy untouched" 2 !(List.nth copy 1)

let test_array_option_pair () =
  let desc = Checkpointable.(pair (array int) (option (mref bool))) in
  let original = ([| 1; 2 |], Some (ref true)) in
  let copy, _ = Checkpointable.checkpoint desc original in
  (fst copy).(0) <- 7;
  Alcotest.(check int) "array copied" 1 (fst original).(0);
  (match snd copy with Some r -> r := false | None -> Alcotest.fail "some");
  match snd original with
  | Some r -> Alcotest.(check bool) "ref copied" true !r
  | None -> Alcotest.fail "some"

let test_iso_roundtrip () =
  let desc =
    Checkpointable.iso
      ~inject:(fun (a, b) -> [ a; b ])
      ~project:(fun l -> match l with [ a; b ] -> (a, b) | _ -> assert false)
      Checkpointable.(list int)
  in
  let copy, _ = Checkpointable.checkpoint desc (4, 5) in
  Alcotest.(check (pair int int)) "roundtrip" (4, 5) copy

let test_rc_sharing_in_copy () =
  let shared = Linear.Rc.create (ref 10) in
  let a = Linear.Rc.clone shared and b = Linear.Rc.clone shared in
  let desc = Checkpointable.(pair (rc (mref int)) (rc (mref int))) in
  let (ca, cb), stats = Checkpointable.checkpoint desc (a, b) in
  Alcotest.(check bool) "copy shares" true (Linear.Rc.ptr_eq ca cb);
  Alcotest.(check bool) "copy is fresh" false (Linear.Rc.ptr_eq ca a);
  Alcotest.(check int) "one copy" 1 stats.Checkpointable.rc_copies;
  Alcotest.(check int) "one dedup hit" 1 stats.Checkpointable.rc_dedup_hits;
  (* Mutating through the copy must not reach the original. *)
  Linear.Rc.get ca := 99;
  Alcotest.(check int) "original intact" 10 !(Linear.Rc.get shared)

let test_rc_flag_no_hash_lookups () =
  let shared = Linear.Rc.create 1 in
  let handles = List.init 10 (fun _ -> Linear.Rc.clone shared) in
  let desc = Checkpointable.(list (rc int)) in
  let _, flag = Checkpointable.checkpoint ~strategy:Checkpointable.Rc_flag desc handles in
  let _, addr = Checkpointable.checkpoint ~strategy:Checkpointable.Addr_set desc handles in
  Alcotest.(check int) "rc-flag: zero hash lookups" 0 flag.Checkpointable.hash_lookups;
  Alcotest.(check int) "addr-set: one lookup per encounter" 10 addr.Checkpointable.hash_lookups;
  Alcotest.(check bool) "both dedup to one copy" true
    (Checkpointable.copies_expected flag ~aliases:10 ~distinct:1
    && Checkpointable.copies_expected addr ~aliases:10 ~distinct:1)

let test_naive_duplicates () =
  let shared = Linear.Rc.create 1 in
  let handles = List.init 4 (fun _ -> Linear.Rc.clone shared) in
  let desc = Checkpointable.(list (rc int)) in
  let copy, stats = Checkpointable.checkpoint ~strategy:Checkpointable.Naive desc handles in
  Alcotest.(check int) "four copies" 4 stats.Checkpointable.rc_copies;
  Alcotest.(check int) "no dedup" 0 stats.Checkpointable.rc_dedup_hits;
  match copy with
  | a :: b :: _ -> Alcotest.(check bool) "copy unshared" false (Linear.Rc.ptr_eq a b)
  | _ -> Alcotest.fail "shape"

let test_consecutive_checkpoints_fresh_epochs () =
  (* The second Rc_flag checkpoint must not be confused by the stale
     scratch stamps of the first. *)
  let shared = Linear.Rc.create 5 in
  let handles = [ Linear.Rc.clone shared; Linear.Rc.clone shared ] in
  let desc = Checkpointable.(list (rc int)) in
  let c1, s1 = Checkpointable.checkpoint desc handles in
  let c2, s2 = Checkpointable.checkpoint desc handles in
  Alcotest.(check bool) "first dedups" true (Checkpointable.copies_expected s1 ~aliases:2 ~distinct:1);
  Alcotest.(check bool) "second dedups" true (Checkpointable.copies_expected s2 ~aliases:2 ~distinct:1);
  (match (c1, c2) with
  | a :: _, b :: _ -> Alcotest.(check bool) "independent copies" false (Linear.Rc.ptr_eq a b)
  | _ -> Alcotest.fail "shape")

let prop_strategies_agree_on_copies =
  (* For any sharing pattern, Addr_set and Rc_flag must make the same
     number of copies (= distinct cells), and Naive one per encounter. *)
  QCheck.Test.make ~name:"dedup strategies agree" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 0 5))
    (fun cell_indices ->
      let cells = Array.init 6 (fun i -> Linear.Rc.create i) in
      let handles = List.map (fun i -> Linear.Rc.clone cells.(i)) cell_indices in
      let desc = Checkpointable.(list (rc int)) in
      let distinct = List.length (List.sort_uniq compare cell_indices) in
      let n = List.length cell_indices in
      let _, flag = Checkpointable.checkpoint ~strategy:Checkpointable.Rc_flag desc handles in
      let _, addr = Checkpointable.checkpoint ~strategy:Checkpointable.Addr_set desc handles in
      let _, naive = Checkpointable.checkpoint ~strategy:Checkpointable.Naive desc handles in
      Checkpointable.copies_expected flag ~aliases:n ~distinct
      && Checkpointable.copies_expected addr ~aliases:n ~distinct
      && naive.Checkpointable.rc_copies = n
      && flag.Checkpointable.hash_lookups = 0)

(* ------------------------------------------------------------------ *)
(* Trie                                                                *)
(* ------------------------------------------------------------------ *)

let ip a b c d =
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.logor
       (Int32.shift_left (Int32.of_int b) 16)
       (Int32.logor (Int32.shift_left (Int32.of_int c) 8) (Int32.of_int d)))

(* The Figure-3 database: two prefixes sharing rule 1, one private
   rule 2. *)
let figure3_trie () =
  let t = Trie.create () in
  let rule1 = Trie.make_rule ~id:1 ~description:"block botnet" Trie.Deny in
  let rule2 = Trie.make_rule ~id:2 ~description:"allow cdn" Trie.Allow in
  Trie.insert t ~prefix:(ip 10 0 0 0) ~len:8 ~rule:rule1;
  Trie.insert t ~prefix:(ip 192 168 0 0) ~len:16 ~rule:rule1;
  Trie.insert t ~prefix:(ip 8 8 0 0) ~len:16 ~rule:rule2;
  Linear.Rc.drop rule1;
  Linear.Rc.drop rule2;
  t

let test_trie_lookup_longest_prefix () =
  let t = Trie.create () in
  let r_short = Trie.make_rule ~id:1 Trie.Allow in
  let r_long = Trie.make_rule ~id:2 Trie.Deny in
  Trie.insert t ~prefix:(ip 10 0 0 0) ~len:8 ~rule:r_short;
  Trie.insert t ~prefix:(ip 10 1 0 0) ~len:16 ~rule:r_long;
  (match Trie.lookup_quiet t (ip 10 1 2 3) with
  | Some r -> Alcotest.(check int) "longest wins" 2 r.Trie.rule_id
  | None -> Alcotest.fail "match expected");
  (match Trie.lookup_quiet t (ip 10 9 2 3) with
  | Some r -> Alcotest.(check int) "falls back to /8" 1 r.Trie.rule_id
  | None -> Alcotest.fail "match expected");
  Alcotest.check rule_opt "no match" None (Trie.lookup_quiet t (ip 11 0 0 1))

let test_trie_hits_and_counts () =
  let t = figure3_trie () in
  Alcotest.(check int) "3 leaves" 3 (Trie.leaf_count t);
  Alcotest.(check int) "2 distinct rules" 2 (Trie.distinct_rules t);
  Alcotest.(check bool) "sharing holds" true (Trie.sharing_preserved t);
  ignore (Trie.lookup t (ip 10 1 1 1));
  ignore (Trie.lookup t (ip 192 168 5 5));
  Alcotest.(check int) "hits accumulate on the shared rule" 2 (Trie.total_hits t);
  (* Hits via both prefixes land on the same rule object. *)
  match Trie.lookup_quiet t (ip 10 1 1 1) with
  | Some r -> Alcotest.(check int) "shared rule saw both" 2 r.Trie.hits
  | None -> Alcotest.fail "match expected"

let test_trie_replace_rule () =
  let t = Trie.create () in
  let r1 = Trie.make_rule ~id:1 Trie.Allow in
  let r2 = Trie.make_rule ~id:2 Trie.Deny in
  Trie.insert t ~prefix:(ip 10 0 0 0) ~len:8 ~rule:r1;
  Trie.insert t ~prefix:(ip 10 0 0 0) ~len:8 ~rule:r2;
  (match Trie.lookup_quiet t (ip 10 0 0 1) with
  | Some r -> Alcotest.(check int) "replaced" 2 r.Trie.rule_id
  | None -> Alcotest.fail "match expected");
  Alcotest.(check int) "still one leaf" 1 (Trie.leaf_count t)

let test_trie_insert_len_bounds () =
  let t = Trie.create () in
  let r = Trie.make_rule ~id:1 Trie.Allow in
  Alcotest.check_raises "len 33" (Invalid_argument "Trie.insert: prefix length out of range")
    (fun () -> Trie.insert t ~prefix:0l ~len:33 ~rule:r)

(* ------------------------------------------------------------------ *)
(* Figure 3: checkpointing the firewall DB                             *)
(* ------------------------------------------------------------------ *)

let test_figure3_naive_duplicates_rule1 () =
  let t = figure3_trie () in
  let copy, stats = Checkpointable.checkpoint ~strategy:Checkpointable.Naive Trie.desc t in
  (* 3 rc encounters (3 leaves) -> 3 copies although only 2 rules. *)
  Alcotest.(check int) "3 copies" 3 stats.Checkpointable.rc_copies;
  Alcotest.(check bool) "copy lost sharing (Fig. 3b)" false (Trie.sharing_preserved copy);
  Alcotest.(check int) "copy has 3 'distinct' rules" 3 (Trie.distinct_rules copy)

let test_figure3_rc_flag_copies_once () =
  let t = figure3_trie () in
  let copy, stats = Checkpointable.checkpoint ~strategy:Checkpointable.Rc_flag Trie.desc t in
  Alcotest.(check bool) "one copy per distinct rule" true
    (Checkpointable.copies_expected stats ~aliases:3 ~distinct:2);
  Alcotest.(check int) "no hashing" 0 stats.Checkpointable.hash_lookups;
  Alcotest.(check bool) "sharing preserved" true (Trie.sharing_preserved copy);
  Alcotest.(check int) "2 distinct rules in copy" 2 (Trie.distinct_rules copy)

let test_figure3_addr_set_copies_once_but_hashes () =
  let t = figure3_trie () in
  let copy, stats = Checkpointable.checkpoint ~strategy:Checkpointable.Addr_set Trie.desc t in
  Alcotest.(check bool) "one copy per distinct rule" true
    (Checkpointable.copies_expected stats ~aliases:3 ~distinct:2);
  Alcotest.(check int) "pays a lookup per encounter" 3 stats.Checkpointable.hash_lookups;
  Alcotest.(check bool) "sharing preserved" true (Trie.sharing_preserved copy)

let test_figure3_copy_semantics_equivalent () =
  let t = figure3_trie () in
  let copy, _ = Checkpointable.checkpoint Trie.desc t in
  List.iter
    (fun probe ->
      Alcotest.check rule_opt "same verdicts" (Trie.lookup_quiet t probe) (Trie.lookup_quiet copy probe))
    [ ip 10 1 2 3; ip 192 168 1 1; ip 8 8 8 8; ip 1 1 1 1 ];
  (* And the copy is independent: hits diverge. *)
  ignore (Trie.lookup copy (ip 10 0 0 1));
  Alcotest.(check int) "original hits untouched" 0 (Trie.total_hits t);
  Alcotest.(check int) "copy hits advanced" 1 (Trie.total_hits copy)

(* ------------------------------------------------------------------ *)
(* Store: snapshot / rollback                                          *)
(* ------------------------------------------------------------------ *)

let test_store_rollback_restores_state () =
  let t = figure3_trie () in
  let store = Store.create Trie.desc t in
  ignore (Store.snapshot store);
  (* Mutate live state: traffic hits + a new rule. *)
  ignore (Trie.lookup (Store.get store) (ip 10 1 1 1));
  ignore (Trie.lookup (Store.get store) (ip 8 8 8 8));
  let r3 = Trie.make_rule ~id:3 Trie.Deny in
  Trie.insert (Store.get store) ~prefix:(ip 9 9 0 0) ~len:16 ~rule:r3;
  Alcotest.(check int) "mutations visible" 2 (Trie.total_hits (Store.get store));
  Alcotest.(check int) "new rule present" 3 (Trie.distinct_rules (Store.get store));
  (* Roll back. *)
  ignore (Store.rollback store);
  Alcotest.(check int) "hits restored" 0 (Trie.total_hits (Store.get store));
  Alcotest.(check int) "rule set restored" 2 (Trie.distinct_rules (Store.get store));
  Alcotest.(check bool) "sharing restored" true (Trie.sharing_preserved (Store.get store))

let test_store_rollback_twice_from_same_snapshot () =
  let t = figure3_trie () in
  let store = Store.create Trie.desc t in
  ignore (Store.snapshot store);
  ignore (Trie.lookup (Store.get store) (ip 10 1 1 1));
  ignore (Store.rollback store);
  ignore (Trie.lookup (Store.get store) (ip 10 1 1 1));
  ignore (Trie.lookup (Store.get store) (ip 10 1 1 2));
  ignore (Store.rollback store);
  Alcotest.(check int) "snapshot survives repeated rollbacks" 0
    (Trie.total_hits (Store.get store))

let test_store_rollback_without_snapshot () =
  let store = Store.create Checkpointable.int 0 in
  Alcotest.check_raises "rollback empty" (Invalid_argument "Store.rollback: no snapshot")
    (fun () -> ignore (Store.rollback store))

let test_store_nested_snapshots () =
  let store = Store.create Checkpointable.(mref int) (ref 0) in
  ignore (Store.snapshot store);
  Store.get store := 1;
  ignore (Store.snapshot store);
  Store.get store := 2;
  ignore (Store.rollback store);
  Alcotest.(check int) "back to the newest" 1 !(Store.get store)

let prop_random_trie_checkpoint_faithful =
  (* Random databases with heavy rule sharing: the checkpoint must give
     identical verdicts on random probes and preserve sharing. *)
  QCheck.Test.make ~name:"random tries checkpoint faithfully" ~count:60
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (pair (int_range 0 7) (int_range 0 0xFFFF)))
              (list_of_size Gen.(int_range 1 30) (int_range 0 0xFFFFFF)))
    (fun (inserts, probes) ->
      let rules = Array.init 8 (fun i -> Trie.make_rule ~id:i (if i mod 2 = 0 then Trie.Allow else Trie.Deny)) in
      let t = Trie.create () in
      List.iter
        (fun (ri, prefix16) ->
          Trie.insert t
            ~prefix:(Int32.shift_left (Int32.of_int prefix16) 16)
            ~len:16 ~rule:rules.(ri))
        inserts;
      let copy, stats = Checkpointable.checkpoint Trie.desc t in
      let distinct = Trie.distinct_rules t in
      let same_verdicts =
        List.for_all
          (fun p ->
            let ip = Int32.of_int (p lsl 8) in
            match (Trie.lookup_quiet t ip, Trie.lookup_quiet copy ip) with
            | None, None -> true
            | Some a, Some b -> a.Trie.rule_id = b.Trie.rule_id
            | _ -> false)
          probes
      in
      same_verdicts
      && Trie.sharing_preserved copy
      && stats.Checkpointable.rc_copies = distinct
      && stats.Checkpointable.hash_lookups = 0)

(* ------------------------------------------------------------------ *)
(* Mutex cells                                                         *)
(* ------------------------------------------------------------------ *)

let test_mutex_combinator_copies_consistently () =
  let cell = Linear.Mutex_cell.create ~label:"cfg" [ 1; 2; 3 ] in
  let desc = Checkpointable.(mutex (list int)) in
  let copy, _ = Checkpointable.checkpoint desc cell in
  Alcotest.(check (list int)) "content copied" [ 1; 2; 3 ] (Linear.Mutex_cell.get copy);
  (* Fresh cell: mutating one side is invisible to the other. *)
  Linear.Mutex_cell.set copy [ 9 ];
  Alcotest.(check (list int)) "original intact" [ 1; 2; 3 ] (Linear.Mutex_cell.get cell);
  Linear.Mutex_cell.set cell [];
  Alcotest.(check (list int)) "copy intact" [ 9 ] (Linear.Mutex_cell.get copy)

let test_mutex_combinator_under_concurrent_writers () =
  (* An (arc (mutex ...)) shared cell is checkpointed while 2 domains
     hammer it; every snapshot must be internally consistent (our
     writers keep the pair's two halves equal). *)
  let cell = Linear.Arc.create (Linear.Mutex_cell.create (0, 0)) in
  let desc = Checkpointable.(arc (mutex (pair int int))) in
  let stop = Atomic.make false in
  let writers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              incr i;
              Linear.Mutex_cell.set (Linear.Arc.get cell) (!i, !i)
            done))
  in
  let consistent = ref true in
  for _ = 1 to 200 do
    let copy, _ = Checkpointable.checkpoint desc cell in
    let a, b = Linear.Mutex_cell.get (Linear.Arc.get copy) in
    if a <> b then consistent := false
  done;
  Atomic.set stop true;
  List.iter Domain.join writers;
  Alcotest.(check bool) "no torn snapshots" true !consistent

(* ------------------------------------------------------------------ *)
(* Arc checkpointing                                                   *)
(* ------------------------------------------------------------------ *)

let test_arc_single_worker_dedup () =
  let shared = Linear.Arc.create (ref 5) in
  let handles = List.init 6 (fun _ -> Linear.Arc.clone shared) in
  let desc = Checkpointable.(list (arc (mref int))) in
  let copy, stats = Checkpointable.checkpoint desc handles in
  Alcotest.(check int) "one copy" 1 stats.Checkpointable.rc_copies;
  Alcotest.(check int) "five dedups" 5 stats.Checkpointable.rc_dedup_hits;
  (match copy with
  | a :: b :: _ ->
    Alcotest.(check bool) "copy shares" true (Linear.Arc.id a = Linear.Arc.id b);
    Linear.Arc.get a := 77;
    Alcotest.(check int) "independent of original" 5 !(Linear.Arc.get shared)
  | _ -> Alcotest.fail "shape")

let test_arc_naive_duplicates () =
  let shared = Linear.Arc.create 1 in
  let handles = List.init 3 (fun _ -> Linear.Arc.clone shared) in
  let desc = Checkpointable.(list (arc int)) in
  let _, stats = Checkpointable.checkpoint ~strategy:Checkpointable.Naive desc handles in
  Alcotest.(check int) "three copies" 3 stats.Checkpointable.rc_copies

(* ------------------------------------------------------------------ *)
(* Weak edges ("external pointers")                                    *)
(* ------------------------------------------------------------------ *)

let test_weak_resolves_to_copied_target () =
  (* An owner followed by a weak edge to it: the copy's weak must point
     at the copied cell, not the original. *)
  let owner = Linear.Rc.create (ref 7) in
  let w = Linear.Rc.downgrade owner in
  let desc = Checkpointable.(pair (rc (mref int)) (weak (mref int))) in
  let (owner', w'), _ = Checkpointable.checkpoint desc (owner, w) in
  (match Linear.Rc.upgrade w' with
  | Some s ->
    Alcotest.(check bool) "weak follows the copy" true (Linear.Rc.ptr_eq s owner');
    Alcotest.(check bool) "not the original" false (Linear.Rc.ptr_eq s owner);
    Linear.Rc.drop s
  | None -> Alcotest.fail "weak should resolve inside the snapshot");
  (* Topology check: mutating through the copied owner is visible via
     the copied weak. *)
  Linear.Rc.get owner' := 99;
  match Linear.Rc.upgrade w' with
  | Some s ->
    Alcotest.(check int) "same copied cell" 99 !(Linear.Rc.get s);
    Linear.Rc.drop s
  | None -> Alcotest.fail "resolve"

let test_weak_to_external_dangles () =
  (* The owner is NOT part of the snapshot: the copy must not
     resurrect or alias it. *)
  let outside = Linear.Rc.create 5 in
  let w = Linear.Rc.downgrade outside in
  let desc = Checkpointable.(weak int) in
  let w', _ = Checkpointable.checkpoint desc w in
  Alcotest.(check bool) "dangles" true (Linear.Rc.upgrade w' = None);
  (* Original untouched. *)
  Alcotest.(check int) "outside alive" 1 (Linear.Rc.strong_count outside)

let test_weak_to_dead_dangles () =
  let gone = Linear.Rc.create 5 in
  let w = Linear.Rc.downgrade gone in
  Linear.Rc.drop gone;
  let w', _ = Checkpointable.checkpoint Checkpointable.(weak int) w in
  Alcotest.(check bool) "dead stays dead" true (Linear.Rc.upgrade w' = None)

let test_weak_back_edge_documented_dangling () =
  (* Weak edge BEFORE its owner: documented to dangle (one-pass
     traversal cannot resolve it). *)
  let owner = Linear.Rc.create 1 in
  let w = Linear.Rc.downgrade owner in
  let desc = Checkpointable.(pair (weak int) (rc int)) in
  let (w', owner'), _ = Checkpointable.checkpoint desc (w, owner) in
  Alcotest.(check bool) "forward-only: dangles" true (Linear.Rc.upgrade w' = None);
  Alcotest.(check int) "owner still copied" 1 (Linear.Rc.get owner')

(* ------------------------------------------------------------------ *)
(* Replay (rollback recovery)                                          *)
(* ------------------------------------------------------------------ *)

(* A deterministic little state machine: a counter cell advanced by
   each input. *)
let counter_replay ~interval =
  Replay.create ~desc:Checkpointable.(mref int)
    ~apply:(fun s x -> s := !s + x)
    ~interval (ref 0)

let test_replay_recovers_exactly () =
  let r = counter_replay ~interval:4 in
  List.iter (fun x -> ignore (Replay.feed r x)) [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check int) "state before crash" 21 !(Replay.state r);
  Alcotest.(check int) "log holds the tail" 2 (Replay.log_length r);
  let rec_ = Replay.crash_and_recover r in
  Alcotest.(check int) "replayed the tail" 2 rec_.Replay.replayed;
  Alcotest.(check int) "state reconstructed" 21 !(Replay.state r);
  (* Feeding continues seamlessly after recovery. *)
  ignore (Replay.feed r 9);
  Alcotest.(check int) "keeps going" 30 !(Replay.state r)

let test_replay_checkpoint_truncates_log () =
  let r = counter_replay ~interval:3 in
  ignore (Replay.feed r 1);
  ignore (Replay.feed r 1);
  Alcotest.(check int) "log grows" 2 (Replay.log_length r);
  (match Replay.feed r 1 with
  | Some _ -> ()
  | None -> Alcotest.fail "third input must checkpoint");
  Alcotest.(check int) "log truncated" 0 (Replay.log_length r);
  Alcotest.(check int) "initial + periodic" 2 (Replay.checkpoints_taken r)

let test_replay_repeated_crashes () =
  (* The snapshot must survive any number of recoveries. *)
  let r = counter_replay ~interval:10 in
  List.iter (fun x -> ignore (Replay.feed r x)) [ 5; 5; 5 ];
  for _ = 1 to 3 do
    let rec_ = Replay.crash_and_recover r in
    Alcotest.(check int) "same tail each time" 3 rec_.Replay.replayed;
    Alcotest.(check int) "same state each time" 15 !(Replay.state r)
  done

let test_replay_validation () =
  Alcotest.check_raises "zero interval" (Invalid_argument "Replay.create: interval must be positive")
    (fun () -> ignore (counter_replay ~interval:0))

let () =
  let qt = Seed.to_alcotest in
  Alcotest.run "chkpt"
    [
      ( "combinators",
        [
          Alcotest.test_case "scalars" `Quick test_scalar_copies;
          Alcotest.test_case "containers copy deeply" `Quick test_containers_copy_deeply;
          Alcotest.test_case "array/option/pair" `Quick test_array_option_pair;
          Alcotest.test_case "iso roundtrip" `Quick test_iso_roundtrip;
          Alcotest.test_case "rc sharing in copy" `Quick test_rc_sharing_in_copy;
          Alcotest.test_case "rc-flag avoids hashing" `Quick test_rc_flag_no_hash_lookups;
          Alcotest.test_case "naive duplicates" `Quick test_naive_duplicates;
          Alcotest.test_case "consecutive checkpoints" `Quick test_consecutive_checkpoints_fresh_epochs;
          qt prop_strategies_agree_on_copies;
        ] );
      ( "trie",
        [
          Alcotest.test_case "longest prefix" `Quick test_trie_lookup_longest_prefix;
          Alcotest.test_case "hits and counts" `Quick test_trie_hits_and_counts;
          Alcotest.test_case "replace rule" `Quick test_trie_replace_rule;
          Alcotest.test_case "len bounds" `Quick test_trie_insert_len_bounds;
        ] );
      ( "figure3",
        [
          Alcotest.test_case "naive duplicates rule 1" `Quick test_figure3_naive_duplicates_rule1;
          Alcotest.test_case "rc-flag copies once" `Quick test_figure3_rc_flag_copies_once;
          Alcotest.test_case "addr-set copies once, hashes" `Quick test_figure3_addr_set_copies_once_but_hashes;
          Alcotest.test_case "copy semantics equivalent" `Quick test_figure3_copy_semantics_equivalent;
          qt prop_random_trie_checkpoint_faithful;
        ] );
      ( "store",
        [
          Alcotest.test_case "rollback restores" `Quick test_store_rollback_restores_state;
          Alcotest.test_case "rollback twice" `Quick test_store_rollback_twice_from_same_snapshot;
          Alcotest.test_case "rollback without snapshot" `Quick test_store_rollback_without_snapshot;
          Alcotest.test_case "nested snapshots" `Quick test_store_nested_snapshots;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "consistent copy" `Quick test_mutex_combinator_copies_consistently;
          Alcotest.test_case "no torn snapshots under writers" `Quick
            test_mutex_combinator_under_concurrent_writers;
        ] );
      ( "weak edges",
        [
          Alcotest.test_case "resolves to copied target" `Quick test_weak_resolves_to_copied_target;
          Alcotest.test_case "external dangles" `Quick test_weak_to_external_dangles;
          Alcotest.test_case "dead dangles" `Quick test_weak_to_dead_dangles;
          Alcotest.test_case "back-edge dangles (documented)" `Quick
            test_weak_back_edge_documented_dangling;
        ] );
      ( "replay",
        [
          Alcotest.test_case "recovers exactly" `Quick test_replay_recovers_exactly;
          Alcotest.test_case "checkpoint truncates log" `Quick test_replay_checkpoint_truncates_log;
          Alcotest.test_case "repeated crashes" `Quick test_replay_repeated_crashes;
          Alcotest.test_case "validation" `Quick test_replay_validation;
        ] );
      ( "arc/parallel",
        [
          Alcotest.test_case "arc single-worker dedup" `Quick test_arc_single_worker_dedup;
          Alcotest.test_case "arc naive duplicates" `Quick test_arc_naive_duplicates;
        ] );
    ]
