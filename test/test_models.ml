(* Reference-model property tests: each checks a production data
   structure against an obviously-correct (slow, functional) model, or
   an invariant of the simulation substrate against its definition. *)

(* ------------------------------------------------------------------ *)
(* Trie vs a Map-based longest-prefix-match reference                  *)
(* ------------------------------------------------------------------ *)

module Prefix_model = struct
  (* (prefix_bits, len) -> rule id; lookup = longest matching prefix. *)
  type t = (int32 * int, int) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let mask len =
    if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

  let insert (t : t) ~prefix ~len ~id =
    Hashtbl.replace t (Int32.logand prefix (mask len), len) id

  let lookup (t : t) ip =
    Hashtbl.fold
      (fun (prefix, len) id best ->
        if Int32.equal (Int32.logand ip (mask len)) prefix then
          match best with
          | Some (blen, _) when blen >= len -> best
          | _ -> Some (len, id)
        else best)
      t None
    |> Option.map snd
end

let prop_trie_matches_model =
  QCheck.Test.make ~name:"trie lookup = reference longest-prefix model" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 40)
           (triple (int_range 0 0xFFFFFF) (int_range 0 24) (int_range 0 9)))
        (list_of_size Gen.(int_range 1 40) (int_range 0 0xFFFFFF)))
    (fun (inserts, probes) ->
      let trie = Chkpt.Trie.create () in
      let model = Prefix_model.create () in
      let rules = Array.init 10 (fun i -> Chkpt.Trie.make_rule ~id:i Chkpt.Trie.Allow) in
      List.iter
        (fun (bits, len, id) ->
          let prefix = Int32.shift_left (Int32.of_int bits) 8 in
          Chkpt.Trie.insert trie ~prefix ~len ~rule:rules.(id);
          Prefix_model.insert model ~prefix ~len ~id)
        inserts;
      List.for_all
        (fun bits ->
          let ip = Int32.shift_left (Int32.of_int bits) 8 in
          let got = Option.map (fun r -> r.Chkpt.Trie.rule_id) (Chkpt.Trie.lookup_quiet trie ip) in
          got = Prefix_model.lookup model ip)
        probes)

(* ------------------------------------------------------------------ *)
(* Cache hierarchy: inclusion invariant                                *)
(* ------------------------------------------------------------------ *)

let prop_cache_inclusion =
  (* The hierarchy is inclusive by construction: any access that hits
     L1 must, re-run against a fresh trace prefix, have been installed
     in L2 and L3 as well. We verify via hit-level monotonicity: for
     any trace, replaying the same address immediately after an access
     must hit L1 (it was just installed everywhere). *)
  QCheck.Test.make ~name:"immediate re-access always hits L1" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 300) (int_range 0 5_000_000))
    (fun addrs ->
      let c = Cycles.Cache.create Cycles.Cache.default_config in
      List.for_all
        (fun addr ->
          ignore (Cycles.Cache.access c addr);
          Cycles.Cache.access c addr = Cycles.Cache.L1)
        addrs)

let prop_cache_capacity_monotone =
  (* Smaller working sets never have more DRAM traffic than larger
     ones on the second pass. *)
  QCheck.Test.make ~name:"dram accesses monotone in working-set size" ~count:30
    QCheck.(pair (int_range 1 200) (int_range 1 200))
    (fun (n1, n2) ->
      let small = min n1 n2 and large = max n1 n2 in
      let dram n =
        let c = Cycles.Cache.create Cycles.Cache.default_config in
        for i = 0 to n - 1 do
          ignore (Cycles.Cache.access c (i * 64))
        done;
        Cycles.Cache.reset_counters c;
        for i = 0 to n - 1 do
          ignore (Cycles.Cache.access c (i * 64))
        done;
        (Cycles.Cache.counters c).Cycles.Cache.dram_accesses
      in
      dram small <= dram large)

(* ------------------------------------------------------------------ *)
(* Ownership checker vs dynamic semantics                              *)
(* ------------------------------------------------------------------ *)

(* Random Safe-dialect programs with moves, branches, loops and calls:
   if the static ownership checker accepts, execution must never trip
   over a moved or unbound variable. (The converse doesn't hold — the
   checker is conservative — so we only test this direction.) *)
let gen_move_heavy_program =
  QCheck.Gen.(
    let var i = Printf.sprintf "v%d" i in
    let nvars = 5 in
    let any_var = map var (int_range 0 (nvars - 1)) in
    let stmt_gen line =
      frequency
        [
          (2, map (fun i -> Ifc.Ast.stmt line (Ifc.Ast.Alloc { var = i; label = Ifc.Label.public })) any_var);
          (3, map2 (fun d s -> Ifc.Ast.stmt line (Ifc.Ast.Move { dst = d; src = s })) any_var any_var);
          (3, map2 (fun d s -> Ifc.Ast.stmt line (Ifc.Ast.Append { dst = d; src = s })) any_var any_var);
          (2, map2 (fun d s -> Ifc.Ast.stmt line (Ifc.Ast.Copy { dst = d; src = s })) any_var any_var);
          (1, map (fun i -> Ifc.Ast.stmt line (Ifc.Ast.Const_write { dst = i; value = line; label = Ifc.Label.public })) any_var);
        ]
    in
    let* n = int_range 1 20 in
    let rec straight line acc =
      if line > n then return (List.rev acc)
      else
        let* s = stmt_gen (line + 100) in
        straight (line + 1) (s :: acc)
    in
    let* body = straight 1 [] in
    (* Wrap a slice of the body in a branch or loop sometimes. *)
    let* wrapped =
      frequency
        [
          (2, return body);
          ( 1,
            let* cond = any_var in
            return
              [
                Ifc.Ast.stmt 50 (Ifc.Ast.Alloc { var = cond; label = Ifc.Label.public });
                Ifc.Ast.stmt 51 (Ifc.Ast.If { cond; then_ = body; else_ = [] });
              ] );
          ( 1,
            let* cond = any_var in
            return
              [
                Ifc.Ast.stmt 50 (Ifc.Ast.Alloc { var = cond; label = Ifc.Label.public });
                (* cond stays empty => falsy => loop body never runs
                   dynamically, but the checker still analyses it. *)
                Ifc.Ast.stmt 51 (Ifc.Ast.While { cond; body });
              ] );
        ]
    in
    let allocs =
      List.init nvars (fun i ->
          Ifc.Ast.stmt i (Ifc.Ast.Alloc { var = var i; label = Ifc.Label.public }))
    in
    return (Ifc.Ast.program (allocs @ wrapped)))

let prop_ownership_static_implies_dynamic =
  QCheck.Test.make ~name:"ownership-checked programs never trap on moves" ~count:500
    (QCheck.make gen_move_heavy_program) (fun p ->
      match Ifc.Ownership.check p with
      | Error _ -> true (* rejected: no claim *)
      | Ok () -> (
        match Ifc.Interp.run ~fuel:50_000 p with
        | _ -> true
        | exception Ifc.Interp.Runtime_error _ -> false))

(* ------------------------------------------------------------------ *)
(* Maglev vs a direct-hash reference for stability                     *)
(* ------------------------------------------------------------------ *)

let prop_maglev_resize_keeps_survivor_majority =
  (* Removing one backend must keep the vast majority of untracked
     flows that mapped to surviving backends on the same backend
     (consistent hashing's raison d'etre). *)
  QCheck.Test.make ~name:"maglev: survivors keep most of their flows" ~count:15
    QCheck.(int_range 1 1000)
    (fun seed ->
      let clock = Cycles.Clock.create () in
      let backends = Array.init 6 (fun i -> Printf.sprintf "b%d" i) in
      let mg = Netstack.Maglev.create ~clock ~backends ~table_size:4099 () in
      let rng = Cycles.Rng.create (Int64.of_int seed) in
      let traffic = Netstack.Traffic.create ~rng (Netstack.Traffic.Uniform { flows = 256 }) in
      let flows = List.init 256 (fun i -> Netstack.Traffic.flow_of_index traffic i) in
      let before = List.map (fun f -> (f, Netstack.Maglev.lookup_no_track mg f)) flows in
      (* Remove backend 5. *)
      ignore (Netstack.Maglev.set_backends mg (Array.sub backends 0 5));
      let moved =
        List.fold_left
          (fun acc (f, b) ->
            if b = 5 then acc (* had to move *)
            else
              let b' = Netstack.Maglev.lookup_no_track mg f in
              (* Names: surviving indices are unchanged 0..4. *)
              if b' <> b then acc + 1 else acc)
          0 before
      in
      let survivors = List.length (List.filter (fun (_, b) -> b <> 5) before) in
      (* Allow a small disruption margin (table entries that changed
         hands even among survivors). *)
      moved * 10 < survivors)

(* ------------------------------------------------------------------ *)
(* Analysis precision order: Exact <= Andersen                         *)
(* ------------------------------------------------------------------ *)

(* On Safe-dialect programs both analyses are sound, but weak updates
   and kill-free points-to can only ADD taint, so every flow the exact
   analysis reports must also be reported by Andersen (the converse
   fails: Andersen has false positives, e.g. around declassification). *)
let prop_exact_at_least_as_precise_as_andersen =
  let gen =
    QCheck.Gen.(
      let var i = Printf.sprintf "v%d" i in
      let nvars = 4 in
      let any_var = map var (int_range 0 (nvars - 1)) in
      let lbl = oneof [ return Ifc.Label.public; return Ifc.Label.secret ] in
      let stmt_gen line =
        frequency
          [
            (3, map3 (fun d v l -> Ifc.Ast.stmt line (Ifc.Ast.Const_write { dst = d; value = v; label = l })) any_var (int_range 0 9) lbl);
            (3, map2 (fun d s -> Ifc.Ast.stmt line (Ifc.Ast.Append { dst = d; src = s })) any_var any_var);
            (2, map2 (fun d s -> Ifc.Ast.stmt line (Ifc.Ast.Copy { dst = d; src = s })) any_var any_var);
            (1, map2 (fun v l -> Ifc.Ast.stmt line (Ifc.Ast.Declassify { var = v; label = l })) any_var lbl);
            (2, map (fun v -> Ifc.Ast.stmt line (Ifc.Ast.Output { channel = "terminal"; src = v })) any_var);
            (1, map2 (fun v l -> Ifc.Ast.stmt line (Ifc.Ast.Assert_leq { var = v; label = l })) any_var lbl);
          ]
      in
      let* n = int_range 1 18 in
      let rec build line acc =
        if line > n then return (List.rev acc)
        else
          let* s = stmt_gen (line + 10) in
          build (line + 1) (s :: acc)
      in
      let* body = build 1 [] in
      let allocs =
        List.init nvars (fun i -> Ifc.Ast.stmt i (Ifc.Ast.Alloc { var = var i; label = Ifc.Label.public }))
      in
      return (Ifc.Ast.program ~channels:[ Ifc.Examples.terminal ] (allocs @ body)))
  in
  QCheck.Test.make ~name:"exact findings subset of andersen findings" ~count:300
    (QCheck.make gen) (fun p ->
      let lines strategy =
        match Ifc.Verifier.verify ~strategy p with
        | Ok r -> List.map (fun f -> (f.Ifc.Abstract.line, f.Ifc.Abstract.what)) r.Ifc.Verifier.findings
        | Error _ -> []
      in
      let exact = lines Ifc.Verifier.Exact in
      let andersen = lines Ifc.Verifier.Andersen in
      List.for_all (fun f -> List.mem f andersen) exact)

(* ------------------------------------------------------------------ *)
(* Packet parser fuzzing                                               *)
(* ------------------------------------------------------------------ *)

let prop_packet_parser_total =
  (* Arbitrary bytes: accessors either succeed or raise
     Invalid_argument — never anything else, never out-of-bounds. *)
  QCheck.Test.make ~name:"packet accessors are total on garbage" ~count:500
    QCheck.(pair (string_of_size Gen.(int_range 0 128)) (int_range 0 128))
    (fun (junk, len) ->
      let buf = Bytes.make 256 '\000' in
      Bytes.blit_string junk 0 buf 0 (String.length junk);
      let p = Netstack.Packet.of_bytes ~addr:0x1000 buf in
      p.Netstack.Packet.len <- min len 256;
      let probe f = match f () with _ -> true | exception Invalid_argument _ -> true in
      probe (fun () -> ignore (Netstack.Packet.flow_of p))
      && probe (fun () -> ignore (Netstack.Packet.ttl p))
      && probe (fun () -> ignore (Netstack.Packet.ipv4_checksum_ok p))
      && probe (fun () -> ignore (Netstack.Packet.payload_length p))
      && probe (fun () -> ignore (Netstack.Packet.is_gre p))
      && probe (fun () -> ignore (Netstack.Packet.ethertype p)))

(* Rollback-recovery fidelity on a real stateful NF: whatever the
   stream and crash point, recovery reconstructs the sketch exactly. *)
let prop_replay_fidelity =
  QCheck.Test.make ~name:"replay reconstructs the sketch exactly" ~count:60
    QCheck.(triple (int_range 1 40) (list_of_size Gen.(int_range 1 150) (int_range 0 30)) (int_range 1 8))
    (fun (interval, stream, cap_scale) ->
      let sketch = Netstack.Heavy_hitters.create ~capacity:(2 * cap_scale) in
      let r =
        Chkpt.Replay.create ~desc:Netstack.Heavy_hitters.desc
          ~apply:(fun s i -> Netstack.Heavy_hitters.observe s i)
          ~interval sketch
      in
      let flow i =
        Netstack.Flow.make ~src_ip:(Int32.of_int i) ~dst_ip:1l ~src_port:(i + 1) ~dst_port:80
          ~protocol:Netstack.Flow.Udp
      in
      List.iter (fun i -> ignore (Chkpt.Replay.feed r (flow i))) stream;
      let truth, _ =
        Chkpt.Checkpointable.checkpoint Netstack.Heavy_hitters.desc (Chkpt.Replay.state r)
      in
      ignore (Chkpt.Replay.crash_and_recover r);
      Netstack.Heavy_hitters.equal truth (Chkpt.Replay.state r))

(* ------------------------------------------------------------------ *)
(* Noninterference                                                     *)
(* ------------------------------------------------------------------ *)

(* The gold-standard end-to-end IFC property: if the verifier accepts a
   program, then executing it with two different secret inputs must
   produce byte-identical output streams on every public-bounded
   channel — including across control flow taken or not taken (the
   implicit flows dynamic taint cannot see). *)
let prop_noninterference =
  let gen =
    QCheck.Gen.(
      let var i = Printf.sprintf "v%d" i in
      let nvars = 4 in
      let any_var = map var (int_range 0 (nvars - 1)) in
      (* [sec] is the secret input whose value the property varies. *)
      let all_vars = oneof [ any_var; return "sec" ] in
      let simple line =
        frequency
          [
            (3, map2 (fun d v -> Ifc.Ast.stmt line (Ifc.Ast.Const_write { dst = d; value = v; label = Ifc.Label.public })) any_var (int_range 0 5));
            (3, map2 (fun d s -> Ifc.Ast.stmt line (Ifc.Ast.Append { dst = d; src = s })) any_var all_vars);
            (2, map2 (fun d s -> Ifc.Ast.stmt line (Ifc.Ast.Copy { dst = d; src = s })) any_var all_vars);
            (3, map (fun v -> Ifc.Ast.stmt line (Ifc.Ast.Output { channel = "terminal"; src = v })) any_var);
          ]
      in
      let* n = int_range 1 10 in
      let rec straight line acc =
        if line > n then return (List.rev acc)
        else
          let* s = simple (line + 100) in
          straight (line + 1) (s :: acc)
      in
      let* prefix = straight 1 [] in
      let* suffix = straight (n + 1) [] in
      (* A branch on a possibly-secret condition in the middle. *)
      let* cond = all_vars in
      let* then_ = straight 50 [] in
      let* else_ = straight 70 [] in
      let body =
        prefix
        @ [ Ifc.Ast.stmt 49 (Ifc.Ast.If { cond; then_; else_ }) ]
        @ suffix
      in
      let allocs =
        Ifc.Ast.stmt 0 (Ifc.Ast.Alloc { var = "sec"; label = Ifc.Label.secret })
        :: List.init nvars (fun i ->
               Ifc.Ast.stmt i (Ifc.Ast.Alloc { var = var i; label = Ifc.Label.public }))
      in
      return (fun secret_value ->
          Ifc.Ast.program ~channels:[ Ifc.Examples.terminal ]
            (allocs
            @ [ Ifc.Ast.stmt 9 (Ifc.Ast.Const_write { dst = "sec"; value = secret_value; label = Ifc.Label.secret }) ]
            @ body)))
  in
  QCheck.Test.make ~name:"verified programs are noninterferent" ~count:400 (QCheck.make gen)
    (fun mk ->
      match Ifc.Verifier.verify ~strategy:Ifc.Verifier.Exact (mk 0) with
      | Error _ -> true
      | Ok r when r.Ifc.Verifier.verdict = Ifc.Verifier.Rejected -> true
      | Ok _ ->
        (* Verified: vary the secret; public outputs must not change. *)
        let observe secret_value =
          let o = Ifc.Interp.run (mk secret_value) in
          List.map
            (fun (e : Ifc.Interp.event) ->
              (e.Ifc.Interp.eline, e.Ifc.Interp.channel,
               List.map (fun el -> el.Ifc.Interp.value) e.Ifc.Interp.data))
            o.Ifc.Interp.events
        in
        observe 0 = observe 1 && observe 0 = observe 7)

let () =
  let qt = Seed.to_alcotest in
  Alcotest.run "models"
    [
      ( "reference models",
        [
          qt prop_trie_matches_model;
          qt prop_cache_inclusion;
          qt prop_cache_capacity_monotone;
          qt prop_ownership_static_implies_dynamic;
          qt prop_maglev_resize_keeps_survivor_majority;
          qt prop_exact_at_least_as_precise_as_andersen;
          qt prop_packet_parser_total;
          qt prop_replay_fidelity;
          qt prop_noninterference;
        ] );
    ]
