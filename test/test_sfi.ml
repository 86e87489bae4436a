(* Tests for the SFI library: domains, rrefs, reference tables,
   policies, panics and recovery — §3 of the paper. *)

let sfi_error = Alcotest.testable Sfi.Sfi_error.pp Sfi.Sfi_error.equal

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
              Sfi.Domain_id.to_string (Sfi.Tls.current ()))
        in
        (r, Sfi.Domain_id.equal (Sfi.Tls.current ()) (Sfi.Pdomain.id outer)))
  in
  match result with
  | Ok (Ok inner_name, restored) ->
    Alcotest.(check string) "inner saw itself" (Sfi.Domain_id.to_string (Sfi.Pdomain.id inner)) inner_name;
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
    Sfi.Rref.invoke rref (fun _ -> Sfi.Domain_id.to_string (Sfi.Tls.current ()))
  in
  Alcotest.(check (result string sfi_error)) "runs inside target"
    (Ok (Sfi.Domain_id.to_string (Sfi.Pdomain.id d)))
    seen

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
(* Heap accounting                                                     *)
(* ------------------------------------------------------------------ *)

let test_heap_alloc_transfer_free () =
  let mgr = Sfi.Manager.create () in
  let heap = Sfi.Manager.heap mgr in
  let a = Sfi.Manager.create_domain mgr ~name:"a" () in
  let b = Sfi.Manager.create_domain mgr ~name:"b" () in
  let alloc = Sfi.Pdomain.alloc a ~bytes:1500 in
  Alcotest.(check int) "a owns 1500" 1500 (Sfi.Heap.live_bytes heap (Sfi.Pdomain.id a));
  Sfi.Heap.transfer heap alloc ~to_:(Sfi.Pdomain.id b);
  Alcotest.(check int) "a owns 0" 0 (Sfi.Heap.live_bytes heap (Sfi.Pdomain.id a));
  Alcotest.(check int) "b owns 1500" 1500 (Sfi.Heap.live_bytes heap (Sfi.Pdomain.id b));
  Sfi.Heap.free heap alloc;
  Alcotest.(check int) "freed" 0 (Sfi.Heap.total_live_bytes heap);
  Alcotest.check_raises "double free" (Invalid_argument "Heap.free: double free") (fun () ->
      Sfi.Heap.free heap alloc)

let test_heap_transfer_is_cheaper_than_copy () =
  let mgr = Sfi.Manager.create () in
  let heap = Sfi.Manager.heap mgr in
  let clock = Sfi.Manager.clock mgr in
  let a = Sfi.Manager.create_domain mgr ~name:"a" () in
  let b = Sfi.Manager.create_domain mgr ~name:"b" () in
  let alloc1 = Sfi.Pdomain.alloc a ~bytes:4096 in
  let alloc2 = Sfi.Pdomain.alloc a ~bytes:4096 in
  let (), move_cost =
    Cycles.Clock.measure clock (fun () ->
        Sfi.Heap.transfer heap alloc1 ~to_:(Sfi.Pdomain.id b))
  in
  (* A copy into [b]: a fresh allocation there, the source read, and
     the per-byte copy charge. *)
  let _copy, copy_cost =
    Cycles.Clock.measure clock (fun () ->
        ignore (Sfi.Pdomain.alloc b ~bytes:4096);
        Cycles.Clock.touch clock alloc2.Sfi.Heap.addr ~bytes:4096;
        Cycles.Clock.charge clock (Copy 4096))
  in
  Alcotest.(check bool)
    (Printf.sprintf "move (%Ld) << copy (%Ld)" move_cost copy_cost)
    true
    Int64.(compare (mul move_cost 10L) copy_cost < 0)

let test_heap_free_all_owned_by () =
  let mgr = Sfi.Manager.create () in
  let heap = Sfi.Manager.heap mgr in
  let a = Sfi.Manager.create_domain mgr ~name:"a" () in
  for _ = 1 to 5 do
    ignore (Sfi.Pdomain.alloc a ~bytes:100)
  done;
  Alcotest.(check int) "five live" 5 (Sfi.Heap.live_allocations heap (Sfi.Pdomain.id a));
  let n = Sfi.Heap.free_all_owned_by heap (Sfi.Pdomain.id a) in
  Alcotest.(check int) "all freed" 5 n;
  Alcotest.(check int) "none live" 0 (Sfi.Heap.live_allocations heap (Sfi.Pdomain.id a))

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let test_recovery_cycle () =
  (* Full §3 story: service exports an rref; a panic kills the domain;
     recovery clears the table, frees memory, re-initialises; a fresh
     rref (re-published by the recovery function) works; the stale rref
     stays dead. *)
  let mgr = Sfi.Manager.create () in
  let heap = Sfi.Manager.heap mgr in
  let fresh_rref = ref None in
  let recovery d =
    ignore (Sfi.Pdomain.alloc d ~bytes:256);
    fresh_rref := Some (Sfi.Rref.create d ~label:"counter'" (ref 100))
  in
  let d = Sfi.Manager.create_domain mgr ~name:"svc" ~recovery () in
  let stale =
    match
      Sfi.Pdomain.execute d (fun () ->
          ignore (Sfi.Pdomain.alloc d ~bytes:512);
          Sfi.Rref.create d ~label:"counter" (ref 0))
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "setup"
  in
  (* Fail the domain. *)
  (match Sfi.Rref.invoke stale (fun _ -> Sfi.Panic.panic "injected") with
  | Error (Sfi.Sfi_error.Domain_failed _) -> ()
  | _ -> Alcotest.fail "panic expected");
  Alcotest.(check int) "memory still accounted" 512
    (Sfi.Heap.live_bytes heap (Sfi.Pdomain.id d));
  (* Recover. *)
  Alcotest.(check (result unit string)) "recover ok" (Ok ()) (Sfi.Manager.recover mgr d);
  Alcotest.(check int) "generation bumped" 1 (Sfi.Pdomain.generation d);
  Alcotest.(check int) "old memory freed, recovery's 256 live" 256
    (Sfi.Heap.live_bytes heap (Sfi.Pdomain.id d));
  (* Stale rref is dead; fresh one works. *)
  Alcotest.check ok_int "stale revoked" (Error Sfi.Sfi_error.Revoked)
    (Sfi.Rref.invoke stale (fun c -> !c));
  (match !fresh_rref with
  | Some r -> Alcotest.check ok_int "fresh works" (Ok 100) (Sfi.Rref.invoke r (fun c -> !c))
  | None -> Alcotest.fail "recovery did not publish");
  let stats = Sfi.Manager.stats mgr in
  Alcotest.(check int) "one recovery" 1 stats.recoveries

let test_recovery_of_destroyed_fails () =
  let mgr = Sfi.Manager.create () in
  let d = Sfi.Manager.create_domain mgr ~name:"gone" () in
  Sfi.Manager.destroy mgr d;
  (match Sfi.Manager.recover mgr d with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "recovering a destroyed domain must fail");
  Alcotest.check ok_int "destroyed domain refuses entry"
    (Error Sfi.Sfi_error.Domain_unavailable)
    (Sfi.Pdomain.execute d (fun () -> 0))

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

let test_destroy_idempotent () =
  let mgr = Sfi.Manager.create () in
  let d = Sfi.Manager.create_domain mgr ~name:"d" () in
  Sfi.Manager.destroy mgr d;
  Sfi.Manager.destroy mgr d;
  let stats = Sfi.Manager.stats mgr in
  Alcotest.(check int) "counted once" 1 stats.domains_destroyed

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
(* Cross-domain channels                                               *)
(* ------------------------------------------------------------------ *)

let make_channel ?(capacity = 4) mgr =
  let producer = Sfi.Manager.create_domain mgr ~name:"producer" () in
  let consumer = Sfi.Manager.create_domain mgr ~name:"consumer" () in
  let chan =
    Sfi.Channel.create ~clock:(Sfi.Manager.clock mgr) ~sender:producer ~receiver:consumer
      ~capacity ()
  in
  (producer, consumer, chan)

let test_channel_zero_copy_transfer () =
  let mgr = Sfi.Manager.create () in
  let producer, consumer, chan = make_channel mgr in
  let payload = Linear.Own.create ~label:"pkt" [ 1; 2; 3 ] in
  (* Send from inside the producer domain; the handle is consumed. *)
  let sent =
    Sfi.Pdomain.execute producer (fun () -> Sfi.Channel.send chan payload)
  in
  (match sent with
  | Ok (Ok ()) -> ()
  | _ -> Alcotest.fail "send should succeed");
  Alcotest.(check bool) "caller lost access" false (Linear.Own.is_live payload);
  (* Receive inside the consumer domain: a fresh owned handle. *)
  (match Sfi.Pdomain.execute consumer (fun () -> Sfi.Channel.recv chan) with
  | Ok (Ok (Some own)) ->
    Alcotest.(check (list int)) "value crossed untouched" [ 1; 2; 3 ] (Linear.Own.consume own)
  | _ -> Alcotest.fail "recv should deliver");
  Alcotest.(check int) "stats" 1 (Sfi.Channel.sent chan);
  Alcotest.(check int) "stats" 1 (Sfi.Channel.received chan)

let test_channel_direction_enforced () =
  let mgr = Sfi.Manager.create () in
  let producer, consumer, chan = make_channel mgr in
  (* The consumer may not send... *)
  (match
     Sfi.Pdomain.execute consumer (fun () ->
         Sfi.Channel.send chan (Linear.Own.create 1))
   with
  | Ok (Error (Sfi.Channel.Wrong_domain _)) -> ()
  | _ -> Alcotest.fail "consumer must not send");
  (* ... and the producer may not receive. *)
  (match Sfi.Pdomain.execute producer (fun () -> Sfi.Channel.recv chan) with
  | Ok (Error (Sfi.Channel.Wrong_domain _)) -> ()
  | _ -> Alcotest.fail "producer must not recv");
  (* The kernel (tests run there) may do both. *)
  (match Sfi.Channel.send chan (Linear.Own.create 9) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "kernel send: %s" (Sfi.Channel.error_to_string e))

let test_channel_capacity_and_close () =
  let mgr = Sfi.Manager.create () in
  let _p, _c, chan = make_channel ~capacity:2 mgr in
  (match Sfi.Channel.send chan (Linear.Own.create 1) with Ok () -> () | Error _ -> Alcotest.fail "1");
  (match Sfi.Channel.send chan (Linear.Own.create 2) with Ok () -> () | Error _ -> Alcotest.fail "2");
  (match Sfi.Channel.send chan (Linear.Own.create 3) with
  | Error Sfi.Channel.Full -> ()
  | _ -> Alcotest.fail "third send must hit capacity");
  Alcotest.(check int) "one drop" 1 (Sfi.Channel.dropped chan);
  Sfi.Channel.close chan;
  (match Sfi.Channel.send chan (Linear.Own.create 4) with
  | Error Sfi.Channel.Closed -> ()
  | _ -> Alcotest.fail "send after close");
  (* Pending messages survive the close. *)
  (match Sfi.Channel.recv chan with
  | Ok (Some own) -> Alcotest.(check int) "fifo" 1 (Linear.Own.consume own)
  | _ -> Alcotest.fail "pending message lost");
  Alcotest.(check int) "length" 1 (Sfi.Channel.length chan)

let test_channel_send_exn_panics () =
  let mgr = Sfi.Manager.create () in
  let _p, _c, chan = make_channel ~capacity:1 mgr in
  (match Sfi.Channel.send_exn chan (Linear.Own.create 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first send fits");
  match Sfi.Channel.send_exn chan (Linear.Own.create 2) with
  | exception Sfi.Panic.Panic _ -> ()
  | _ -> Alcotest.fail "overflow must panic"

let test_channel_empty_recv () =
  let mgr = Sfi.Manager.create () in
  let _p, _c, chan = make_channel mgr in
  match Sfi.Channel.recv chan with
  | Ok None -> ()
  | _ -> Alcotest.fail "empty channel yields None"

let () =
  let qt = QCheck_alcotest.to_alcotest in
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
      ( "heap",
        [
          Alcotest.test_case "alloc/transfer/free" `Quick test_heap_alloc_transfer_free;
          Alcotest.test_case "transfer cheaper than copy" `Quick test_heap_transfer_is_cheaper_than_copy;
          Alcotest.test_case "free_all_owned_by" `Quick test_heap_free_all_owned_by;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "full recovery cycle" `Quick test_recovery_cycle;
          Alcotest.test_case "destroyed cannot recover" `Quick test_recovery_of_destroyed_fails;
          Alcotest.test_case "recovery fn panic" `Quick test_recovery_function_panic;
          Alcotest.test_case "destroy idempotent" `Quick test_destroy_idempotent;
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
          Alcotest.test_case "capacity and close" `Quick test_channel_capacity_and_close;
          Alcotest.test_case "send_exn panics" `Quick test_channel_send_exn_panics;
          Alcotest.test_case "empty recv" `Quick test_channel_empty_recv;
        ] );
    ]
