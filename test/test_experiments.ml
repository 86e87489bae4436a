(* Integration tests over the experiment harness: each test asserts the
   *shape* DESIGN.md §4 promises for the corresponding paper artefact
   (who wins, by roughly what factor, where crossovers fall). These are
   the repository's acceptance tests. *)

open Experiments

(* Each run records into a registry of its own, as [repro] gives it. *)
let fresh () = Telemetry.Registry.create ()

let fig2_at rows batch =
  match List.find_opt (fun r -> r.Fig2.batch = batch) rows with
  | Some r -> r
  | None -> Alcotest.failf "no fig2 row at batch %d" batch

let test_fig2_shape () =
  let rows = Fig2.run ~telemetry:(fresh ()) in
  Alcotest.(check int) "9 rows" 9 (List.length rows);
  let b1 = fig2_at rows 1 and b32 = fig2_at rows 32 and b256 = fig2_at rows 256 in
  (* ~90 cycles per protected call at batch 1. *)
  Alcotest.(check bool)
    (Printf.sprintf "batch-1 overhead %.0f in [60,130]" b1.Fig2.overhead_per_call)
    true
    (b1.Fig2.overhead_per_call >= 60. && b1.Fig2.overhead_per_call <= 130.);
  (* Overhead grows with batch size (cache pressure), mildly. *)
  Alcotest.(check bool) "grows with batch" true
    (b256.Fig2.overhead_per_call >= b1.Fig2.overhead_per_call);
  Alcotest.(check bool) "grows < 2x" true
    (b256.Fig2.overhead_per_call <= 2. *. b1.Fig2.overhead_per_call);
  (* "Roughly the cost of 2 or 3 L3 cache accesses". *)
  Alcotest.(check bool)
    (Printf.sprintf "%.2f L3 equivalents in [1.5, 3.5]" b1.Fig2.l3_equivalents)
    true
    (b1.Fig2.l3_equivalents >= 1.5 && b1.Fig2.l3_equivalents <= 3.5);
  (* Negligible vs Maglev for large batches; not negligible at 1. *)
  Alcotest.(check bool) "under 1% at 256" true (b256.Fig2.overhead_vs_maglev < 0.01);
  Alcotest.(check bool) "under 2% at 32" true (b32.Fig2.overhead_vs_maglev < 0.02);
  Alcotest.(check bool) "material at batch 1" true (b1.Fig2.overhead_vs_maglev > 0.05);
  (* Maglev batch cost grows with batch size. *)
  Alcotest.(check bool) "maglev cost grows" true
    (b256.Fig2.maglev_cycles > 10. *. b1.Fig2.maglev_cycles)

let test_pipeline_length_independence () =
  let rows = Pipeline_length.run ~telemetry:(fresh ()) in
  Alcotest.(check int) "5 rows" 5 (List.length rows);
  let dev = Pipeline_length.max_deviation rows in
  Alcotest.(check bool) (Printf.sprintf "deviation %.3f < 0.10" dev) true (dev < 0.10)

let test_recovery_shape () =
  let r = Recovery.run ~telemetry:(fresh ()) in
  (* Same order of magnitude as the paper's 4389 cycles. *)
  Alcotest.(check bool)
    (Printf.sprintf "total %.0f in [2000, 9000]" r.Recovery.total_mean)
    true
    (r.Recovery.total_mean >= 2000. && r.Recovery.total_mean <= 9000.);
  (* Unwinding dominates the recover step. *)
  Alcotest.(check bool) "catch >> recover" true
    (Cycles.Stats.mean r.Recovery.catch_cycles > Cycles.Stats.mean r.Recovery.recover_cycles)

let test_sfi_baselines_shape () =
  match Sfi_baselines.run ~telemetry:(fresh ()) with
  | [ direct; isolated; copying; tagged ] ->
    Alcotest.(check (float 0.)) "direct is the baseline" 0. direct.Sfi_baselines.overhead_vs_direct;
    (* Linear SFI: negligible overhead. *)
    Alcotest.(check bool)
      (Printf.sprintf "linear SFI %.1f%% < 10%%" (100. *. isolated.Sfi_baselines.overhead_vs_direct))
      true
      (isolated.Sfi_baselines.overhead_vs_direct < 0.10);
    (* Copying: unacceptable at line rate. *)
    Alcotest.(check bool) "copying > 50%" true (copying.Sfi_baselines.overhead_vs_direct > 0.5);
    (* Tagged heap: the paper's "over 100%". *)
    Alcotest.(check bool)
      (Printf.sprintf "tagged %.0f%% > 100%%" (100. *. tagged.Sfi_baselines.overhead_vs_direct))
      true
      (tagged.Sfi_baselines.overhead_vs_direct > 1.0);
    (* Ordering: ours beats both traditional architectures comfortably. *)
    Alcotest.(check bool) "isolated cheapest protection" true
      (isolated.Sfi_baselines.cycles_per_batch < copying.Sfi_baselines.cycles_per_batch
      && isolated.Sfi_baselines.cycles_per_batch < tagged.Sfi_baselines.cycles_per_batch)
  | _ -> Alcotest.fail "expected 4 rows"

let find_row rows ~program ~strategy =
  List.find_opt
    (fun r ->
      String.equal r.Ifc_matrix.program program
      && String.equal r.Ifc_matrix.strategy strategy)
    rows

let test_ifc_matrix_shape () =
  let rows = Ifc_matrix.run () in
  (* Every analysis is sound except the naive no-alias baseline. *)
  List.iter
    (fun r ->
      let expect_sound = not (String.equal r.Ifc_matrix.strategy "naive-no-alias") in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s soundness" r.Ifc_matrix.program r.Ifc_matrix.strategy)
        expect_sound r.Ifc_matrix.sound)
    rows;
  (* The paper's specific cells. *)
  (match find_row rows ~program:"buffer, direct leak" ~strategy:"exact-ownership" with
  | Some r -> Alcotest.(check (list int)) "line 16 flagged" [ 16 ] r.Ifc_matrix.flow_findings
  | None -> Alcotest.fail "missing row");
  (match find_row rows ~program:"buffer, alias exploit" ~strategy:"exact-ownership" with
  | Some r ->
    Alcotest.(check (list int)) "ownership error at 17" [ 17 ] r.Ifc_matrix.ownership_errors
  | None -> Alcotest.fail "missing row");
  (match find_row rows ~program:"buffer, alias exploit" ~strategy:"naive-no-alias" with
  | Some r ->
    Alcotest.(check string) "false negative" "VERIFIED" r.Ifc_matrix.verdict;
    Alcotest.(check string) "yet it leaks" "leaks" r.Ifc_matrix.dynamic
  | None -> Alcotest.fail "missing row");
  match find_row rows ~program:"buffer, alias exploit" ~strategy:"andersen-points-to" with
  | Some r -> Alcotest.(check (list int)) "andersen flags 17" [ 17 ] r.Ifc_matrix.flow_findings
  | None -> Alcotest.fail "missing row"

let test_ifc_store_shape () =
  let r = Ifc_store.run ~clients:5 () in
  List.iter
    (fun s ->
      let expected = if String.equal s.Ifc_store.variant "clean" then "VERIFIED" else "REJECTED" in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s verdict" s.Ifc_store.variant s.Ifc_store.strategy)
        expected s.Ifc_store.verdict;
      match s.Ifc_store.expected_line with
      | Some l ->
        Alcotest.(check (list int)) "finding at exactly the seeded line" [ l ]
          s.Ifc_store.finding_lines;
        Alcotest.(check int) "bug is real (dynamic leak)" 1 s.Ifc_store.dynamic_leaks
      | None -> Alcotest.(check int) "clean has no dynamic leaks" 0 s.Ifc_store.dynamic_leaks)
    r.Ifc_store.store;
  match r.Ifc_store.copies with
  | [ rust; sectype ] ->
    Alcotest.(check bool) "rust version accepted" true rust.Ifc_store.accepted;
    Alcotest.(check int) "rust version copies nothing" 0 rust.Ifc_store.runtime_copies;
    Alcotest.(check bool) "sectype version accepted after repair" true sectype.Ifc_store.accepted;
    Alcotest.(check bool) "sectype pays copies" true (sectype.Ifc_store.runtime_copies > 0)
  | _ -> Alcotest.fail "expected 2 copy rows"

let test_ifc_scaling_shape () =
  let rows = Ifc_scaling.run () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "clients=%d all verified" r.Ifc_scaling.clients)
        true r.Ifc_scaling.all_verified;
      Alcotest.(check bool) "summaries cheaper than inlining" true
        (r.Ifc_scaling.compositional_transfers < r.Ifc_scaling.exact_transfers);
      Alcotest.(check bool) "alias analysis is the most expensive" true
        (r.Ifc_scaling.andersen_transfers > r.Ifc_scaling.exact_transfers))
    rows;
  (* Compositional advantage widens with program size. *)
  let ratio r =
    float_of_int r.Ifc_scaling.exact_transfers
    /. float_of_int r.Ifc_scaling.compositional_transfers
  in
  let rec widens = function
    | small :: (large :: _ as rest) ->
      Alcotest.(check bool)
        (Printf.sprintf "advantage grows (%.2f -> %.2f)" (ratio small) (ratio large))
        true
        (ratio large >= ratio small);
      widens rest
    | _ -> ()
  in
  Alcotest.(check int) "5 rows" 5 (List.length rows);
  widens rows

let test_fig3_shape () =
  match Fig3.run () with
  | [ naive; addr; flag ] ->
    (* Figure 3b: naive duplicates the shared rule and loses sharing. *)
    Alcotest.(check int) "naive: one copy per leaf" 3 naive.Fig3.copies;
    Alcotest.(check bool) "naive loses sharing" false naive.Fig3.sharing_preserved;
    Alcotest.(check int) "naive copy has phantom rules" 3 naive.Fig3.rules_in_copy;
    (* Both sound strategies copy each rule once. *)
    Alcotest.(check int) "addr-set: 2 copies" 2 addr.Fig3.copies;
    Alcotest.(check int) "rc-flag: 2 copies" 2 flag.Fig3.copies;
    Alcotest.(check bool) "both preserve sharing" true
      (addr.Fig3.sharing_preserved && flag.Fig3.sharing_preserved);
    (* Only the conventional one pays hash lookups. *)
    Alcotest.(check int) "addr-set pays lookups" 3 addr.Fig3.hash_lookups;
    Alcotest.(check int) "rc-flag pays none" 0 flag.Fig3.hash_lookups
  | _ -> Alcotest.fail "expected 3 rows"

let test_ckpt_cost_shape () =
  let rows = Ckpt_cost.run () in
  List.iter
    (fun r ->
      Alcotest.(check int) "dedup copies = rules" r.Ckpt_cost.rules r.Ckpt_cost.dedup_copies;
      Alcotest.(check int) "naive copies = leaves" r.Ckpt_cost.leaves r.Ckpt_cost.naive_copies;
      Alcotest.(check (float 1e-9)) "overcopy = alias factor"
        (float_of_int r.Ckpt_cost.alias_factor)
        r.Ckpt_cost.naive_overcopy;
      Alcotest.(check int) "addr-set lookups = leaves" r.Ckpt_cost.leaves
        r.Ckpt_cost.addr_set_lookups;
      Alcotest.(check int) "rc-flag lookups = 0" 0 r.Ckpt_cost.rc_flag_lookups)
    rows

let test_rollback_shape () =
  let rows = Rollback.run ~telemetry:(fresh ()) in
  let at interval =
    match List.find_opt (fun r -> r.Rollback.interval = interval) rows with
    | Some r -> r
    | None -> Alcotest.failf "no rollback row at interval %d" interval
  in
  let tight = at 1 and loose = at 64 in
  Alcotest.(check bool) "every recovery exact" true
    (List.for_all (fun r -> r.Rollback.recovered_exact) rows);
  Alcotest.(check bool) "steady-state cost falls with interval" true
    (loose.Rollback.ckpt_nodes_per_input < tight.Rollback.ckpt_nodes_per_input);
  Alcotest.(check bool) "replay grows with interval" true
    (loose.Rollback.replayed_on_crash > tight.Rollback.replayed_on_crash);
  Alcotest.(check int) "interval 1 never replays" 0 tight.Rollback.replayed_on_crash

let test_ablations_shape () =
  let r = Ablations.run ~telemetry:(fresh ()) in
  (match r.Ablations.pin with
  | [ full; pinned ] ->
    Alcotest.(check bool) "pinning is cheaper" true
      (pinned.Ablations.cycles_per_call < full.Ablations.cycles_per_call);
    Alcotest.(check bool) "but not revocable" true
      (full.Ablations.revocable && not pinned.Ablations.revocable)
  | _ -> Alcotest.fail "expected 2 pin rows");
  (* Zeroing any micro-cost can only reduce the overhead; the atomic
     upgrade is the single largest contributor. *)
  (match r.Ablations.attribution with
  | full :: rest ->
    List.iter
      (fun a -> Alcotest.(check bool) ("zeroing reduces: " ^ a.Ablations.zeroed) true (a.Ablations.delta_vs_full >= 0.))
      rest;
    let atomic = List.find (fun a -> a.Ablations.zeroed = "atomic_rmw") rest in
    List.iter
      (fun a ->
        Alcotest.(check bool) "atomic dominates" true
          (atomic.Ablations.delta_vs_full >= a.Ablations.delta_vs_full))
      rest;
    ignore full
  | [] -> Alcotest.fail "no attribution rows");
  (* Recovery total is monotone in the unwind cost. *)
  let totals = List.map (fun u -> u.Ablations.recovery_total) r.Ablations.unwind in
  Alcotest.(check bool) "monotone in unwind" true (List.sort compare totals = totals)

(* A2 re-runs E1's batch-1 measurement on the same per-boundary null
   chain, so its full-model row is E1's overhead per call, and zeroing
   one micro-cost removes exactly that cost from each of the five
   crossings' share: TLS lookup 12, atomic upgrade 40, indirect call
   18 cycles. *)
let test_ablation_matches_fig2 () =
  let e1 = (fig2_at (Fig2.run ~telemetry:(fresh ())) 1).Fig2.overhead_per_call in
  let a2 = (Ablations.run ~telemetry:(fresh ())).Ablations.attribution in
  let row name =
    match List.find_opt (fun a -> a.Ablations.zeroed = name) a2 with
    | Some a -> a
    | None -> Alcotest.failf "no A2 row %s" name
  in
  let eq = Alcotest.float 1e-9 in
  Alcotest.check eq "E1 batch-1 overhead/call" 84.0 e1;
  Alcotest.check eq "A2 full model = E1 batch 1" e1
    (row "(none: full model)").Ablations.overhead_per_call;
  List.iter
    (fun (name, share) ->
      Alcotest.check eq ("A2 share of " ^ name) share (row name).Ablations.delta_vs_full)
    [ ("tls_lookup", 12.0); ("atomic_rmw", 40.0); ("indirect_call", 18.0) ]

let () =
  Alcotest.run "experiments"
    [
      ( "shapes",
        [
          Alcotest.test_case "fig2 (E1/E10)" `Slow test_fig2_shape;
          Alcotest.test_case "pipeline length (E2)" `Slow test_pipeline_length_independence;
          Alcotest.test_case "recovery (E3)" `Slow test_recovery_shape;
          Alcotest.test_case "sfi baselines (E4)" `Slow test_sfi_baselines_shape;
          Alcotest.test_case "ifc matrix (E5)" `Quick test_ifc_matrix_shape;
          Alcotest.test_case "ifc store (E6)" `Quick test_ifc_store_shape;
          Alcotest.test_case "ifc scaling (E7)" `Quick test_ifc_scaling_shape;
          Alcotest.test_case "fig3 (E8)" `Quick test_fig3_shape;
          Alcotest.test_case "ckpt cost (E9)" `Quick test_ckpt_cost_shape;
          Alcotest.test_case "rollback (E13)" `Quick test_rollback_shape;
          Alcotest.test_case "ablations (A1-A3)" `Slow test_ablations_shape;
          Alcotest.test_case "A2 full model = E1 batch 1" `Quick test_ablation_matches_fig2;
        ] );
    ]
