(* Tests for the dynamic linear-ownership runtime: Own, Rc, Arc,
   Mutex_cell. These verify that the runtime enforces exactly the
   discipline the paper's §2 attributes to the Rust compiler. *)

open Linear

let check_violation name expected f =
  match f () with
  | exception Lin_error.Ownership_violation v -> (
    match (expected, v) with
    | `Use_after_move, Lin_error.Use_after_move _
    | `Move_while_borrowed, Lin_error.Move_while_borrowed _
    | `Borrow_conflict, Lin_error.Borrow_conflict _
    | `Use_after_drop, Lin_error.Use_after_drop _
    | `Upgrade_failed, Lin_error.Upgrade_failed _ ->
      ()
    | _ ->
      Alcotest.failf "%s: wrong violation: %s" name (Lin_error.violation_to_string v))
  | _ -> Alcotest.failf "%s: expected an ownership violation" name

(* ------------------------------------------------------------------ *)
(* Own                                                                 *)
(* ------------------------------------------------------------------ *)

let test_own_take_consumes () =
  (* The §2 listing: take(v1) then println!(v1) is an error;
     borrow(&v2) then println!(v2) is fine. *)
  let v1 = Own.create ~label:"v1" [ 1; 2; 3 ] in
  let v2 = Own.create ~label:"v2" [ 1; 2; 3 ] in
  let take v = ignore (Own.consume v) in
  let borrow v = Own.borrow v List.length in
  take v1;
  check_violation "println(v1) after take" `Use_after_move (fun () -> Own.borrow v1 List.length);
  Alcotest.(check int) "borrow preserves binding" 3 (borrow v2);
  Alcotest.(check int) "v2 still usable" 3 (Own.borrow v2 List.length)

let test_own_move_transfers () =
  let a = Own.create ~label:"a" 42 in
  let b = Own.move a in
  Alcotest.(check bool) "a dead" false (Own.is_live a);
  Alcotest.(check bool) "b live" true (Own.is_live b);
  Alcotest.(check int) "value travelled" 42 (Own.consume b);
  check_violation "double move" `Use_after_move (fun () -> Own.move a)

let test_own_double_consume () =
  let a = Own.create 1 in
  ignore (Own.consume a);
  check_violation "double consume" `Use_after_move (fun () -> Own.consume a)

let test_own_shared_borrows_nest () =
  let a = Own.create ~label:"a" [| 1; 2 |] in
  let total =
    Own.borrow a (fun x -> Own.borrow a (fun y -> Array.length x + Array.length y))
  in
  Alcotest.(check int) "nested shared" 4 total;
  Alcotest.(check int) "borrows released" 0 (Own.borrow_count a)

let test_own_mut_excludes_shared () =
  let a = Own.create ~label:"a" (ref 0) in
  check_violation "shared inside mut" `Borrow_conflict (fun () ->
      Own.borrow_mut a (fun _ -> Own.borrow a (fun _ -> ())));
  check_violation "mut inside shared" `Borrow_conflict (fun () ->
      Own.borrow a (fun _ -> Own.borrow_mut a (fun _ -> ())));
  check_violation "mut inside mut" `Borrow_conflict (fun () ->
      Own.borrow_mut a (fun _ -> Own.borrow_mut a (fun _ -> ())));
  (* After the failed attempts the handle is still usable. *)
  Own.borrow_mut a (fun r -> incr r);
  Alcotest.(check int) "mutation applied" 1 (Own.borrow a (fun r -> !r))

let test_own_move_while_borrowed () =
  let a = Own.create ~label:"a" 5 in
  check_violation "move under borrow" `Move_while_borrowed (fun () ->
      Own.borrow a (fun _ -> Own.move a));
  Alcotest.(check bool) "still live after failed move" true (Own.is_live a)

let test_own_borrow_released_on_exception () =
  let a = Own.create ~label:"a" 5 in
  (try Own.borrow a (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "borrow count back to 0" 0 (Own.borrow_count a);
  (try Own.borrow_mut a (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "mut flag cleared" false (Own.mut_borrowed a);
  ignore (Own.move a)

let test_own_replace () =
  let a = Own.create ~label:"a" 1 in
  Alcotest.(check int) "old value" 1 (Own.replace a 2);
  Alcotest.(check int) "new value" 2 (Own.consume a)

let test_own_labels () =
  let a = Own.create ~label:"cfg" () in
  Alcotest.(check string) "label kept" "cfg" (Own.label a);
  let b = Own.create () in
  Alcotest.(check bool) "auto label nonempty" true (String.length (Own.label b) > 0)

let prop_own_move_chain =
  QCheck.Test.make ~name:"move chains preserve the value" ~count:100
    QCheck.(pair int (int_range 1 50))
    (fun (v, n) ->
      let h = ref (Own.create v) in
      for _ = 1 to n do
        h := Own.move !h
      done;
      Own.consume !h = v)

(* ------------------------------------------------------------------ *)
(* Rc                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rc_clone_counts () =
  let a = Rc.create ~label:"x" "payload" in
  Alcotest.(check int) "initial" 1 (Rc.strong_count a);
  let b = Rc.clone a in
  Alcotest.(check int) "after clone" 2 (Rc.strong_count a);
  Alcotest.(check bool) "aliases" true (Rc.ptr_eq a b);
  Alcotest.(check string) "read via either" (Rc.get a) (Rc.get b);
  Rc.drop b;
  Alcotest.(check int) "after drop" 1 (Rc.strong_count a);
  Rc.drop a

let test_rc_use_after_drop () =
  let a = Rc.create 1 in
  Rc.drop a;
  check_violation "get after drop" `Use_after_drop (fun () -> Rc.get a);
  check_violation "double drop" `Use_after_drop (fun () -> Rc.drop a);
  check_violation "clone after drop" `Use_after_drop (fun () -> Rc.clone a)

let test_rc_weak_upgrade () =
  let a = Rc.create ~label:"obj" 99 in
  let w = Rc.downgrade a in
  (match Rc.upgrade w with
  | Some s ->
    Alcotest.(check int) "value" 99 (Rc.get s);
    Alcotest.(check int) "count incl. upgrade" 2 (Rc.strong_count a);
    Rc.drop s
  | None -> Alcotest.fail "upgrade should succeed");
  Rc.drop a;
  Alcotest.(check bool) "upgrade after death" true (Rc.upgrade w = None);
  check_violation "upgrade_exn after death" `Upgrade_failed (fun () -> Rc.upgrade_exn w)

let test_rc_weak_does_not_keep_alive () =
  let a = Rc.create 1 in
  let w = Rc.downgrade a in
  Alcotest.(check int) "weak count" 1 (Rc.weak_count a);
  Rc.drop a;
  Alcotest.(check bool) "dead despite weak" true (Rc.upgrade w = None)

let test_rc_scratch () =
  let a = Rc.create "node" in
  let b = Rc.clone a in
  Alcotest.(check int) "initial scratch" 0 (Rc.scratch a);
  Rc.set_scratch a 7;
  Alcotest.(check int) "visible via alias" 7 (Rc.scratch b);
  Alcotest.(check bool) "ids equal across aliases" true (Rc.id a = Rc.id b);
  let c = Rc.create "other" in
  Alcotest.(check bool) "distinct cells distinct ids" true (Rc.id a <> Rc.id c)

let prop_rc_counts =
  (* Random clone/drop interleavings keep strong_count = live handles. *)
  QCheck.Test.make ~name:"rc strong_count = live handles" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) bool)
    (fun ops ->
      let root = Rc.create 0 in
      let live = ref [ root ] in
      List.iter
        (fun clone_op ->
          match !live with
          | [] -> ()
          | h :: rest ->
            if clone_op then live := Rc.clone h :: !live
            else begin
              Rc.drop h;
              live := rest
            end)
        ops;
      match !live with
      | [] -> true
      | h :: _ -> Rc.strong_count h = List.length !live)

(* ------------------------------------------------------------------ *)
(* Arc                                                                 *)
(* ------------------------------------------------------------------ *)

let test_arc_basics () =
  let a = Arc.create 5 in
  let b = Arc.clone a in
  Alcotest.(check int) "count" 2 (Arc.strong_count a);
  Alcotest.(check bool) "ptr_eq" true (Arc.id a = Arc.id b);
  Arc.drop b;
  Alcotest.(check int) "value" 5 (Arc.get a);
  Arc.drop a;
  check_violation "use after drop" `Use_after_drop (fun () -> Arc.get a)

let test_arc_weak_upgrade_lifecycle () =
  let a = Arc.create 1 in
  let w = Arc.downgrade a in
  (match Arc.upgrade w with
  | Some s -> Arc.drop s
  | None -> Alcotest.fail "should upgrade");
  Arc.drop a;
  Alcotest.(check bool) "dead" true (Arc.upgrade w = None);
  check_violation "upgrade_exn" `Upgrade_failed (fun () -> Arc.upgrade_exn w)

let test_arc_concurrent_clone_drop () =
  (* 4 OCaml domains each clone+drop 1000 times; the count must return
     to 1 and the value must stay reachable throughout. *)
  let a = Arc.create 17 in
  let worker () =
    let w = Arc.downgrade a in
    for _ = 1 to 1000 do
      match Arc.upgrade w with
      | Some s ->
        assert (Arc.get s = 17);
        Arc.drop s
      | None -> assert false
    done
  in
  let ds = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Alcotest.(check int) "count restored" 1 (Arc.strong_count a);
  Arc.drop a

(* ------------------------------------------------------------------ *)
(* Mutex_cell                                                          *)
(* ------------------------------------------------------------------ *)

let test_mutex_cell_basics () =
  let c = Mutex_cell.create ~label:"counter" 0 in
  Alcotest.(check string) "label" "counter" (Mutex_cell.label c);
  Mutex_cell.update c succ;
  Mutex_cell.update c succ;
  Alcotest.(check int) "updates applied" 2 (Mutex_cell.get c);
  let doubled = Mutex_cell.with_lock c (fun v -> (v * 2, v)) in
  Alcotest.(check int) "result is old value" 2 doubled;
  Alcotest.(check int) "content replaced" 4 (Mutex_cell.get c);
  Mutex_cell.set c 0;
  Alcotest.(check int) "set" 0 (Mutex_cell.get c)

let test_mutex_cell_exception_preserves () =
  let c = Mutex_cell.create 41 in
  (try Mutex_cell.update c (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "content unchanged on raise" 41 (Mutex_cell.get c);
  (* And the lock was released. *)
  Mutex_cell.update c succ;
  Alcotest.(check int) "lock released" 42 (Mutex_cell.get c)

let test_mutex_cell_try_lock () =
  let c = Mutex_cell.create 0 in
  (match Mutex_cell.try_with_lock c (fun v -> (v + 1, `Got)) with
  | Some `Got -> ()
  | None -> Alcotest.fail "uncontended try_lock should succeed");
  Alcotest.(check int) "applied" 1 (Mutex_cell.get c)

let test_mutex_cell_concurrent_increments () =
  let c = Mutex_cell.create 0 in
  let worker () = for _ = 1 to 10_000 do Mutex_cell.update c succ done in
  let ds = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" 40_000 (Mutex_cell.get c)

(* ------------------------------------------------------------------ *)
(* Session types                                                       *)
(* ------------------------------------------------------------------ *)

let test_session_send_recv () =
  (* Protocol: send int, recv string, stop. *)
  let a, b = Session.create Session.(Send (Recv Stop)) in
  let worker =
    Domain.spawn (fun () ->
        let n, b = Session.recv b in
        let b = Session.send b (string_of_int (n * 2)) in
        Session.close b)
  in
  let a = Session.send a 21 in
  let reply, a = Session.recv a in
  Session.close a;
  Domain.join worker;
  Alcotest.(check string) "protocol roundtrip" "42" reply

let test_session_linearity_enforced () =
  let a, b = Session.create Session.(Send Stop) in
  let _a' = Session.send a 1 in
  (* Reusing the consumed endpoint is an ownership violation. *)
  (match Session.send a 2 with
  | exception Linear.Lin_error.Ownership_violation _ -> ()
  | _ -> Alcotest.fail "endpoint reuse must raise");
  let v, b = Session.recv b in
  Alcotest.(check int) "first send went through" 1 v;
  Session.close b

let test_session_choose_offer () =
  let dual = Session.(Choose (Send Stop, Recv Stop)) in
  let run pick =
    let a, b = Session.create dual in
    let worker =
      Domain.spawn (fun () ->
          match Session.offer b with
          | Either.Left b ->
            let v, b = Session.recv b in
            Session.close b;
            `Got v
          | Either.Right b ->
            let b = Session.send b 99 in
            Session.close b;
            `Sent)
    in
    let result =
      if pick then begin
        let a = Session.choose_left a in
        let a = Session.send a 7 in
        Session.close a;
        Domain.join worker
      end
      else begin
        let a = Session.choose_right a in
        let v, a = Session.recv a in
        Session.close a;
        ignore (Domain.join worker);
        `Got v
      end
    in
    result
  in
  (match run true with
  | `Got 7 -> ()
  | _ -> Alcotest.fail "left branch should deliver 7");
  match run false with
  | `Got 99 -> ()
  | _ -> Alcotest.fail "right branch should deliver 99"

let test_session_is_live () =
  let a, b = Session.create Session.(Send Stop) in
  Alcotest.(check bool) "fresh endpoint live" true (Session.is_live a);
  let a' = Session.send a 0 in
  Alcotest.(check bool) "consumed endpoint dead" false (Session.is_live a);
  Alcotest.(check bool) "continuation live" true (Session.is_live a');
  Session.close a';
  let _, b = Session.recv b in
  Session.close b

let () =
  let qt = Seed.to_alcotest in
  Alcotest.run "linear"
    [
      ( "own",
        [
          Alcotest.test_case "take consumes / borrow preserves" `Quick test_own_take_consumes;
          Alcotest.test_case "move transfers" `Quick test_own_move_transfers;
          Alcotest.test_case "double consume" `Quick test_own_double_consume;
          Alcotest.test_case "shared borrows nest" `Quick test_own_shared_borrows_nest;
          Alcotest.test_case "mutable exclusion" `Quick test_own_mut_excludes_shared;
          Alcotest.test_case "no move while borrowed" `Quick test_own_move_while_borrowed;
          Alcotest.test_case "borrow released on exception" `Quick test_own_borrow_released_on_exception;
          Alcotest.test_case "replace" `Quick test_own_replace;
          Alcotest.test_case "labels" `Quick test_own_labels;
          qt prop_own_move_chain;
        ] );
      ( "rc",
        [
          Alcotest.test_case "clone counts" `Quick test_rc_clone_counts;
          Alcotest.test_case "use after drop" `Quick test_rc_use_after_drop;
          Alcotest.test_case "weak upgrade" `Quick test_rc_weak_upgrade;
          Alcotest.test_case "weak does not keep alive" `Quick test_rc_weak_does_not_keep_alive;
          Alcotest.test_case "scratch word" `Quick test_rc_scratch;
          qt prop_rc_counts;
        ] );
      ( "arc",
        [
          Alcotest.test_case "basics" `Quick test_arc_basics;
          Alcotest.test_case "weak lifecycle" `Quick test_arc_weak_upgrade_lifecycle;
          Alcotest.test_case "concurrent clone/drop" `Quick test_arc_concurrent_clone_drop;
        ] );
      ( "mutex_cell",
        [
          Alcotest.test_case "basics" `Quick test_mutex_cell_basics;
          Alcotest.test_case "exception preserves content" `Quick test_mutex_cell_exception_preserves;
          Alcotest.test_case "try_lock" `Quick test_mutex_cell_try_lock;
          Alcotest.test_case "concurrent increments" `Quick test_mutex_cell_concurrent_increments;
        ] );
      ( "session",
        [
          Alcotest.test_case "send/recv protocol" `Quick test_session_send_recv;
          Alcotest.test_case "linearity enforced" `Quick test_session_linearity_enforced;
          Alcotest.test_case "choose/offer" `Quick test_session_choose_offer;
          Alcotest.test_case "is_live" `Quick test_session_is_live;
        ] );
    ]
