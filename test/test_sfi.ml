(* Tests for the SFI library: domains, rrefs, reference tables,
   policies, panics and recovery — §3 of the paper. *)

let sfi_error =
  Alcotest.testable (fun ppf e -> Format.pp_print_string ppf (Sfi.Sfi_error.to_string e)) ( = )

let ok_int = Alcotest.(result int sfi_error)

(* ------------------------------------------------------------------ *)
(* Domain execution & panics                                           *)
(* ------------------------------------------------------------------ *)

let test_execute_runs_inside () =
  let mgr = Sfi.Manager.create () in
  let d = Sfi.Manager.create_domain mgr ~name:"worker" () in
  let result =
    Sfi.Pdomain.execute d (fun () ->
        Alcotest.(check bool) "current = d" true
          (Sfi.Domain_id.equal (Sfi.Tls.current ()) (Sfi.Pdomain.id d));
        21 * 2)
  in
  Alcotest.check ok_int "result returned" (Ok 42) result;
  Alcotest.(check bool) "back to kernel" true (Sfi.Domain_id.is_kernel (Sfi.Tls.current ()))

let test_execute_nested_domains () =
  let mgr = Sfi.Manager.create () in
  let outer = Sfi.Manager.create_domain mgr ~name:"outer" () in
  let inner = Sfi.Manager.create_domain mgr ~name:"inner" () in
  let result =
    Sfi.Pdomain.execute outer (fun () ->
        let r =
          Sfi.Pdomain.execute inner (fun () ->
              Sfi.Domain_id.equal (Sfi.Tls.current ()) (Sfi.Pdomain.id inner))
        in
        (r, Sfi.Domain_id.equal (Sfi.Tls.current ()) (Sfi.Pdomain.id outer)))
  in
  match result with
  | Ok (Ok inner_saw_itself, restored) ->
    Alcotest.(check bool) "inner saw itself" true inner_saw_itself;
    Alcotest.(check bool) "outer restored" true restored
  | _ -> Alcotest.fail "nested execution failed"

let test_panic_marks_failed () =
  let mgr = Sfi.Manager.create () in
  let d = Sfi.Manager.create_domain mgr ~name:"flaky" () in
  let result = Sfi.Pdomain.execute d (fun () -> Sfi.Panic.panic "kaboom") in
  (match result with
  | Error (Sfi.Sfi_error.Domain_failed msg) ->
    Alcotest.(check string) "panic payload" "kaboom" msg
  | _ -> Alcotest.fail "expected Domain_failed");
  (match Sfi.Pdomain.state d with
  | Sfi.Pdomain.Failed _ -> ()
  | _ -> Alcotest.fail "domain should be Failed");
  Alcotest.(check int) "panic counted" 1 (Sfi.Pdomain.panic_count d);
  (* Further entries are refused. *)
  Alcotest.check ok_int "unavailable" (Error Sfi.Sfi_error.Domain_unavailable)
    (Sfi.Pdomain.execute d (fun () -> 1))

let test_bounds_check_is_a_panic () =
  (* §3: "a panic occurs inside the domain (e.g., due to a bounds check
     or assertion violation)". *)
  let mgr = Sfi.Manager.create () in
  let d = Sfi.Manager.create_domain mgr ~name:"oob" () in
  let arr = [| 1; 2; 3 |] in
  (match Sfi.Pdomain.execute d (fun () -> arr.(10)) with
  | Error (Sfi.Sfi_error.Domain_failed _) -> ()
  | _ -> Alcotest.fail "bounds check should fail the domain");
  match Sfi.Pdomain.state d with
  | Sfi.Pdomain.Failed _ -> ()
  | _ -> Alcotest.fail "domain should be Failed"

let test_non_panic_exception_propagates () =
  let mgr = Sfi.Manager.create () in
  let d = Sfi.Manager.create_domain mgr ~name:"d" () in
  (match Sfi.Pdomain.execute d (fun () -> raise Exit) with
  | exception Exit -> ()
  | _ -> Alcotest.fail "Exit must not be treated as a panic");
  (* A genuine harness exception must not poison the domain. *)
  match Sfi.Pdomain.state d with
  | Sfi.Pdomain.Running -> ()
  | _ -> Alcotest.fail "domain should still be Running"

(* ------------------------------------------------------------------ *)
(* Rrefs                                                               *)
(* ------------------------------------------------------------------ *)

let make_counter_domain mgr name =
  let d = Sfi.Manager.create_domain mgr ~name () in
  let rref =
    match Sfi.Pdomain.execute d (fun () -> Sfi.Rref.create d ~label:"counter" (ref 0)) with
    | Ok r -> r
    | Error _ -> Alcotest.fail "setup failed"
  in
  (d, rref)

let test_rref_invoke () =
  let mgr = Sfi.Manager.create () in
  let _d, rref = make_counter_domain mgr "svc" in
  Alcotest.check ok_int "increments"
    (Ok 1)
    (Sfi.Rref.invoke rref (fun c -> incr c; !c));
  Alcotest.check ok_int "state persists"
    (Ok 2)
    (Sfi.Rref.invoke rref (fun c -> incr c; !c))

let test_rref_invoke_switches_domain () =
  let mgr = Sfi.Manager.create () in
  let d, rref = make_counter_domain mgr "svc" in
  let seen =
    Sfi.Rref.invoke rref (fun _ -> Sfi.Domain_id.equal (Sfi.Tls.current ()) (Sfi.Pdomain.id d))
  in
  Alcotest.(check (result bool sfi_error)) "runs inside target" (Ok true) seen

let test_rref_revocation () =
  let mgr = Sfi.Manager.create () in
  let d, rref = make_counter_domain mgr "svc" in
  Alcotest.(check bool) "not yet revoked" false (Sfi.Rref.is_revoked rref);
  Alcotest.(check bool) "revoke succeeds" true (Sfi.Rref.revoke rref);
  Alcotest.(check bool) "marked revoked" true (Sfi.Rref.is_revoked rref);
  Alcotest.check ok_int "invoke fails" (Error Sfi.Sfi_error.Revoked)
    (Sfi.Rref.invoke rref (fun c -> !c));
  Alcotest.(check bool) "second revoke is a no-op" false (Sfi.Rref.revoke rref);
  Alcotest.(check int) "table emptied" 0 (Sfi.Ref_table.size (Sfi.Pdomain.table d))

let test_rref_policy_access_control () =
  let mgr = Sfi.Manager.create () in
  let d, rref = make_counter_domain mgr "svc" in
  let other = Sfi.Manager.create_domain mgr ~name:"other" () in
  let friend = Sfi.Manager.create_domain mgr ~name:"friend" () in
  Sfi.Pdomain.set_policy d (Sfi.Policy.allow_callers [ Sfi.Pdomain.id friend ]);
  (* Kernel (tests run in kernel context) is always allowed. *)
  Alcotest.check ok_int "kernel ok" (Ok 0) (Sfi.Rref.invoke rref (fun c -> !c));
  (* friend allowed. *)
  (match Sfi.Pdomain.execute friend (fun () -> Sfi.Rref.invoke rref (fun c -> !c)) with
  | Ok (Ok 0) -> ()
  | _ -> Alcotest.fail "friend should be allowed");
  (* other denied. *)
  (match Sfi.Pdomain.execute other (fun () -> Sfi.Rref.invoke rref (fun c -> !c)) with
  | Ok (Error Sfi.Sfi_error.Access_denied) -> ()
  | _ -> Alcotest.fail "other should be denied")

let test_rref_invoke_move_consumes () =
  let mgr = Sfi.Manager.create () in
  let _d, rref = make_counter_domain mgr "svc" in
  let arg = Linear.Own.create ~label:"payload" 5 in
  Alcotest.check ok_int "moved arg used" (Ok 5)
    (Sfi.Rref.invoke_move rref arg (fun c v -> c := v; !c));
  Alcotest.(check bool) "caller lost the argument" false (Linear.Own.is_live arg)

let test_rref_invoke_move_consumes_even_on_failure () =
  let mgr = Sfi.Manager.create () in
  let _d, rref = make_counter_domain mgr "svc" in
  ignore (Sfi.Rref.revoke rref);
  let arg = Linear.Own.create 9 in
  (match Sfi.Rref.invoke_move rref arg (fun c v -> c := v) with
  | Error Sfi.Sfi_error.Revoked -> ()
  | _ -> Alcotest.fail "expected Revoked");
  Alcotest.(check bool) "arg consumed regardless" false (Linear.Own.is_live arg)

let test_rref_panic_in_method () =
  let mgr = Sfi.Manager.create () in
  let d, rref = make_counter_domain mgr "svc" in
  (match Sfi.Rref.invoke rref (fun _ -> Sfi.Panic.panic "null-filter crash") with
  | Error (Sfi.Sfi_error.Domain_failed _) -> ()
  | _ -> Alcotest.fail "expected Domain_failed");
  (* Domain is failed: next invoke reports unavailable without running. *)
  Alcotest.check ok_int "post-failure invoke" (Error Sfi.Sfi_error.Domain_unavailable)
    (Sfi.Rref.invoke rref (fun c -> !c));
  match Sfi.Pdomain.state d with
  | Sfi.Pdomain.Failed _ -> ()
  | _ -> Alcotest.fail "domain failed state"

(* ------------------------------------------------------------------ *)
(* Reference table                                                     *)
(* ------------------------------------------------------------------ *)

let test_ref_table_register_revoke_clear () =
  let clock = Cycles.Clock.create () in
  let tbl = Sfi.Ref_table.create ~clock ~owner:(Sfi.Domain_id.fresh ()) in
  let s1, w1, _ = Sfi.Ref_table.register tbl "a" in
  let _s2, w2, _ = Sfi.Ref_table.register tbl "b" in
  Alcotest.(check int) "two live slots" 2 (Sfi.Ref_table.size tbl);
  let probe w =
    (* Upgrade-and-release, so the probe itself does not keep the
       object alive. *)
    match Linear.Rc.upgrade w with
    | Some s ->
      Linear.Rc.drop s;
      true
    | None -> false
  in
  Alcotest.(check bool) "w1 upgrades" true (probe w1);
  Alcotest.(check bool) "revoke s1" true (Sfi.Ref_table.revoke tbl s1);
  Alcotest.(check bool) "w1 dead" false (probe w1);
  Alcotest.(check bool) "w2 alive" true (probe w2);
  let n = Sfi.Ref_table.clear tbl in
  Alcotest.(check int) "cleared remaining" 1 n;
  Alcotest.(check bool) "w2 dead after clear" false (probe w2);
  Alcotest.(check int) "generation bumped" 1 (Sfi.Ref_table.generation tbl)

let test_ref_table_upgraded_strong_survives_revoke () =
  (* An in-flight call holds an upgraded strong reference; revocation
     must not invalidate it mid-call (refcount semantics). *)
  let clock = Cycles.Clock.create () in
  let tbl = Sfi.Ref_table.create ~clock ~owner:(Sfi.Domain_id.fresh ()) in
  let s, w, _ = Sfi.Ref_table.register tbl (ref 5) in
  match Linear.Rc.upgrade w with
  | None -> Alcotest.fail "upgrade"
  | Some strong ->
    ignore (Sfi.Ref_table.revoke tbl s);
    Alcotest.(check int) "still readable mid-call" 5 !(Linear.Rc.get strong);
    Linear.Rc.drop strong;
    Alcotest.(check bool) "dead after call ends" true (Linear.Rc.upgrade w = None)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let test_recovery_cycle () =
  (* Full §3 story: service exports an rref; a panic kills the domain;
     recovery clears the table and re-initialises; a fresh
     rref (re-published by the recovery function) works; the stale rref
     stays dead. *)
  let mgr = Sfi.Manager.create () in
  let fresh_rref = ref None in
  let recovery d =
    fresh_rref := Some (Sfi.Rref.create d ~label:"counter'" (ref 100))
  in
  let d = Sfi.Manager.create_domain mgr ~name:"svc" ~recovery () in
  let stale =
    match
      Sfi.Pdomain.execute d (fun () -> Sfi.Rref.create d ~label:"counter" (ref 0))
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "setup"
  in
  (* Fail the domain. *)
  (match Sfi.Rref.invoke stale (fun _ -> Sfi.Panic.panic "injected") with
  | Error (Sfi.Sfi_error.Domain_failed _) -> ()
  | _ -> Alcotest.fail "panic expected");
  (* Recover. *)
  Alcotest.(check (result unit string)) "recover ok" (Ok ()) (Sfi.Manager.recover mgr d);
  Alcotest.(check int) "generation bumped" 1 (Sfi.Pdomain.generation d);
  (* Stale rref is dead; fresh one works. *)
  Alcotest.check ok_int "stale revoked" (Error Sfi.Sfi_error.Revoked)
    (Sfi.Rref.invoke stale (fun c -> !c));
  match !fresh_rref with
  | Some r -> Alcotest.check ok_int "fresh works" (Ok 100) (Sfi.Rref.invoke r (fun c -> !c))
  | None -> Alcotest.fail "recovery did not publish"

let test_recovery_function_panic () =
  let mgr = Sfi.Manager.create () in
  let recovery _ = Sfi.Panic.panic "recovery itself broken" in
  let d = Sfi.Manager.create_domain mgr ~name:"hopeless" ~recovery () in
  ignore (Sfi.Pdomain.execute d (fun () -> Sfi.Panic.panic "first"));
  (match Sfi.Manager.recover mgr d with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "recovery fn panic must surface");
  match Sfi.Pdomain.state d with
  | Sfi.Pdomain.Failed _ -> ()
  | _ -> Alcotest.fail "domain should be Failed after bad recovery"

(* ------------------------------------------------------------------ *)
(* Costs                                                               *)
(* ------------------------------------------------------------------ *)

let test_invoke_charges_cycles () =
  let mgr = Sfi.Manager.create () in
  let _d, rref = make_counter_domain mgr "svc" in
  let clock = Sfi.Manager.clock mgr in
  (* Warm the metadata. *)
  ignore (Sfi.Rref.invoke rref (fun c -> !c));
  let _, cycles = Cycles.Clock.measure clock (fun () -> Sfi.Rref.invoke rref (fun c -> !c)) in
  (* The §3 claim: ~90 cycles per protected call in the hot case. Allow
     a generous band; the precise value is the subject of bench E1. *)
  Alcotest.(check bool)
    (Printf.sprintf "hot invoke = %Ld cycles, expected in [40, 200]" cycles)
    true
    (cycles >= 40L && cycles <= 200L)

let test_failed_invoke_cheaper_than_success () =
  let mgr = Sfi.Manager.create () in
  let _d, rref = make_counter_domain mgr "svc" in
  let clock = Sfi.Manager.clock mgr in
  ignore (Sfi.Rref.invoke rref (fun c -> !c));
  let _, ok_cycles = Cycles.Clock.measure clock (fun () -> Sfi.Rref.invoke rref (fun c -> !c)) in
  ignore (Sfi.Rref.revoke rref);
  let _, err_cycles = Cycles.Clock.measure clock (fun () -> Sfi.Rref.invoke rref (fun c -> !c)) in
  Alcotest.(check bool) "failed upgrade short-circuits" true (err_cycles < ok_cycles)

let prop_many_rrefs_independent =
  QCheck.Test.make ~name:"revoking one rref never affects others" ~count:30
    QCheck.(int_range 2 30)
    (fun n ->
      let mgr = Sfi.Manager.create () in
      let d = Sfi.Manager.create_domain mgr ~name:"svc" () in
      let rrefs = Array.init n (fun i -> Sfi.Rref.create d (ref i)) in
      let victim = n / 2 in
      ignore (Sfi.Rref.revoke rrefs.(victim));
      Array.for_all
        (fun i ->
          let r = Sfi.Rref.invoke rrefs.(i) (fun c -> !c) in
          if i = victim then r = Error Sfi.Sfi_error.Revoked else r = Ok i)
        (Array.init n Fun.id))

let test_cpu_accounting () =
  let mgr = Sfi.Manager.create () in
  let busy = Sfi.Manager.create_domain mgr ~name:"busy" () in
  let idle = Sfi.Manager.create_domain mgr ~name:"idle" () in
  let clock = Sfi.Manager.clock mgr in
  for _ = 1 to 5 do
    ignore (Sfi.Pdomain.execute busy (fun () -> Cycles.Clock.charge clock (Fixed 1000)))
  done;
  ignore (Sfi.Pdomain.execute idle (fun () -> ()));
  Alcotest.(check int) "busy entries" 5 (Sfi.Pdomain.entry_count busy);
  Alcotest.(check bool) "busy cycles >= 5000" true (Sfi.Pdomain.cycles_consumed busy >= 5000L);
  Alcotest.(check bool) "idle cheap" true
    (Sfi.Pdomain.cycles_consumed idle < Sfi.Pdomain.cycles_consumed busy)

(* ------------------------------------------------------------------ *)
(* Channels                                                           *)
(* ------------------------------------------------------------------ *)

let make_channel ?(capacity = 4) mgr =
  let producer = Sfi.Manager.create_domain mgr ~name:"producer" () in
  let other = Sfi.Manager.create_domain mgr ~name:"other" () in
  let chan =
    Sfi.Channel.create ~clock:(Sfi.Manager.clock mgr) ~sender:producer ~capacity ()
  in
  (producer, other, chan)

let test_channel_zero_copy_transfer () =
  let mgr = Sfi.Manager.create () in
  let producer, _other, chan = make_channel mgr in
  let payload = Linear.Own.create ~label:"pkt" [ 1; 2; 3 ] in
  (* Send from inside the producer domain; the handle is consumed. *)
  let sent =
    Sfi.Pdomain.execute producer (fun () -> Sfi.Channel.send chan payload)
  in
  (match sent with
  | Ok (Ok ()) -> ()
  | _ -> Alcotest.fail "send should succeed");
  Alcotest.(check bool) "caller lost access" false (Linear.Own.is_live payload);
  Alcotest.(check int) "queued" 1 (Sfi.Channel.length chan)

let test_channel_direction_enforced () =
  let mgr = Sfi.Manager.create () in
  let _producer, other, chan = make_channel mgr in
  (* Another domain may not send... *)
  (match
     Sfi.Pdomain.execute other (fun () ->
         Sfi.Channel.send chan (Linear.Own.create 1))
   with
  | Ok (Error (Sfi.Channel.Wrong_domain _)) -> ()
  | _ -> Alcotest.fail "another domain must not send");
  (* ... but the kernel (tests run there) may. *)
  match Sfi.Channel.send chan (Linear.Own.create 9) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "kernel send"

let test_channel_capacity () =
  let mgr = Sfi.Manager.create () in
  let _p, _c, chan = make_channel ~capacity:2 mgr in
  (match Sfi.Channel.send chan (Linear.Own.create 1) with Ok () -> () | Error _ -> Alcotest.fail "1");
  (match Sfi.Channel.send chan (Linear.Own.create 2) with Ok () -> () | Error _ -> Alcotest.fail "2");
  (match Sfi.Channel.send chan (Linear.Own.create 3) with
  | Error Sfi.Channel.Full -> ()
  | _ -> Alcotest.fail "third send must hit capacity");
  Alcotest.(check int) "the dropped message is not queued" 2 (Sfi.Channel.length chan)

let test_channel_send_exn_panics () =
  let mgr = Sfi.Manager.create () in
  let _p, _c, chan = make_channel ~capacity:1 mgr in
  (match Sfi.Channel.send_exn chan (Linear.Own.create 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first send fits");
  match Sfi.Channel.send_exn chan (Linear.Own.create 2) with
  | exception Sfi.Panic.Panic _ -> ()
  | _ -> Alcotest.fail "overflow must panic"

let () =
  let qt = Seed.to_alcotest in
  Alcotest.run "sfi"
    [
      ( "execute",
        [
          Alcotest.test_case "runs inside domain" `Quick test_execute_runs_inside;
          Alcotest.test_case "nested domains" `Quick test_execute_nested_domains;
          Alcotest.test_case "panic marks failed" `Quick test_panic_marks_failed;
          Alcotest.test_case "bounds check is a panic" `Quick test_bounds_check_is_a_panic;
          Alcotest.test_case "non-panic exception propagates" `Quick test_non_panic_exception_propagates;
        ] );
      ( "rref",
        [
          Alcotest.test_case "invoke" `Quick test_rref_invoke;
          Alcotest.test_case "invoke switches domain" `Quick test_rref_invoke_switches_domain;
          Alcotest.test_case "revocation" `Quick test_rref_revocation;
          Alcotest.test_case "policy access control" `Quick test_rref_policy_access_control;
          Alcotest.test_case "invoke_move consumes" `Quick test_rref_invoke_move_consumes;
          Alcotest.test_case "invoke_move consumes on failure" `Quick
            test_rref_invoke_move_consumes_even_on_failure;
          Alcotest.test_case "panic in method" `Quick test_rref_panic_in_method;
          qt prop_many_rrefs_independent;
        ] );
      ( "ref_table",
        [
          Alcotest.test_case "register/revoke/clear" `Quick test_ref_table_register_revoke_clear;
          Alcotest.test_case "in-flight strong survives revoke" `Quick
            test_ref_table_upgraded_strong_survives_revoke;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "full recovery cycle" `Quick test_recovery_cycle;
          Alcotest.test_case "recovery fn panic" `Quick test_recovery_function_panic;
        ] );
      ( "costs",
        [
          Alcotest.test_case "invoke charges cycles" `Quick test_invoke_charges_cycles;
          Alcotest.test_case "failed invoke cheaper" `Quick test_failed_invoke_cheaper_than_success;
        ] );
      ( "accounting",
        [ Alcotest.test_case "per-domain cpu accounting" `Quick test_cpu_accounting ] );
      ( "channel",
        [
          Alcotest.test_case "zero-copy transfer" `Quick test_channel_zero_copy_transfer;
          Alcotest.test_case "direction enforced" `Quick test_channel_direction_enforced;
          Alcotest.test_case "capacity" `Quick test_channel_capacity;
          Alcotest.test_case "send_exn panics" `Quick test_channel_send_exn_panics;
        ] );
    ]
