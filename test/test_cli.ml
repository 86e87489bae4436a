(* The `repro` command line: its error paths, the experiment table it
   is built from, and `repro check` itself; and the examples. Each
   binary is run as a child process, the way a user or CI runs it. *)

module R = Experiments.Registry

let repro = Data.path "../bin/repro.exe"

(* [(exit code, stdout, stderr)] of [prog args] ([repro] unless
   given), run in [cwd]. *)
let run ?(prog = repro) ?(cwd = ".") args =
  let here = Sys.getcwd () in
  Sys.chdir cwd;
  let out, inp, err =
    Fun.protect
      ~finally:(fun () -> Sys.chdir here)
      (fun () -> Unix.open_process_args_full prog (Array.of_list (prog :: args)) [||])
  in
  close_out inp;
  let o = In_channel.input_all out and e = In_channel.input_all err in
  let code =
    match Unix.close_process_full (out, inp, err) with
    | Unix.WEXITED c -> c
    | _ -> Alcotest.failf "%s %s was killed" prog (String.concat " " args)
  in
  (code, o, e)

let expect_error args stderr =
  let code, out, err = run args in
  let cmd = String.concat " " args in
  Alcotest.(check int) ("exit code of repro " ^ cmd) 1 code;
  Alcotest.(check string) ("stdout of repro " ^ cmd) "" out;
  Alcotest.(check string) ("stderr of repro " ^ cmd) (stderr ^ "\n") err

let det_entries = List.map (fun (e : R.entry) -> (e, e.det)) R.all

let test_unknown_ids () =
  (* run and check share one resolver. *)
  List.iter
    (fun cmd -> expect_error [ cmd; "bogus-id" ] "unknown experiment(s): bogus-id")
    [ "run"; "check" ];
  expect_error [ "run"; "fig2"; "nope"; "bogus-id" ] "unknown experiment(s): nope, bogus-id"

let test_bad_shards () =
  List.iter
    (fun ((e : R.entry), (d : R.det)) ->
      List.iter
        (fun n ->
          expect_error
            [ e.id; "--stats-only"; "--shards"; Printf.sprintf "1,%d" n ]
            (Printf.sprintf "repro %s: invalid shard count %d (need 1 <= shards <= queues = %d)"
               e.id n d.queues))
        [ 0; d.queues + 1 ])
    det_entries

let test_bad_requests () =
  expect_error [ "scale"; "--shards"; "2" ] "repro scale: --shards needs --stats-only"

(* recover reads test/corpus from the working directory; started
   anywhere else it must fail, not print a corpus block that differs
   from its golden and exit 0. *)
let test_recover_needs_corpus () =
  let dir = Filename.temp_dir "repro-recover" "" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  let code, _, err = run ~cwd:dir [ "recover"; "--stats-only" ] in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check string) "stderr"
    "repro: corpus directory test/corpus not found (run from the repository root)\n" err

let golden_text id =
  In_channel.with_open_bin (Data.path (Filename.concat ".." (R.golden id))) In_channel.input_all

let test_table_well_formed () =
  Alcotest.(check int) "experiments with a deterministic surface" 18 (List.length det_entries);
  List.iter
    (fun ((e : R.entry), (d : R.det)) ->
      if d.shards = [] || List.exists (fun n -> n < 1 || n > d.queues) d.shards then
        Alcotest.failf "%s: shard counts must lie in 1..%d" e.id d.queues;
      if not (Sys.file_exists (Data.path (Filename.concat ".." (R.golden e.id)))) then
        Alcotest.failf "%s: golden %s is missing" e.id (R.golden e.id);
      List.iter (fun re -> ignore (Str.regexp re)) (d.require @ d.forbid))
    det_entries

(* Every experiment has one configuration: [repro <id>] prints its
   golden ([repro check] diffs [--stats-only] against it), then its
   wall-clock section if it has one. *)
let test_one_configuration () =
  let repro_out id =
    let code, out, err = run [ id ] in
    Alcotest.(check int) (Printf.sprintf "exit code of repro %s:\n%s" id err) 0 code;
    out
  in
  let virtual_clock = List.filter (fun (e : R.entry) -> e.wall = None) R.all in
  Alcotest.(check int) "experiments without a wall-clock section" 13
    (List.length virtual_clock);
  List.iter
    (fun (e : R.entry) ->
      Alcotest.(check string) ("repro " ^ e.id ^ " = " ^ R.golden e.id) (golden_text e.id)
        (repro_out e.id))
    virtual_clock;
  let golden = golden_text "reverify" and out = repro_out "reverify" in
  let n = String.length golden in
  Alcotest.(check string) "repro reverify begins with its golden" golden
    (String.sub out 0 (min n (String.length out)));
  Alcotest.(check bool) "then a wall-clock section" true
    (String.starts_with ~prefix:"\nwall-clock reverification"
       (String.sub out n (String.length out - n)))

(* Each experiment's telemetry is its own run's: after fig2 in the
   same process, ifc-store (which records nothing) still prints exactly
   its golden, with no leftover rows of fig2's. *)
let test_run_isolates_telemetry () =
  let code, out, err = run [ "run"; "fig2"; "ifc-store" ] in
  Alcotest.(check int) ("exit code of repro run fig2 ifc-store:\n" ^ err) 0 code;
  let start =
    match Str.search_forward (Str.regexp_string "\n==== ifc-store") out 0 with
    | i -> String.index_from out (i + 1) '\n' + 1
    | exception Not_found -> Alcotest.failf "no ifc-store header in:\n%s" out
  in
  Alcotest.(check string) "ifc-store section = its golden" (golden_text "ifc-store")
    (String.sub out start (String.length out - start))

(* [repro check] against a scratch copy of the goldens: clean copies
   pass, a changed golden line fails that golden's step (and only it). *)
let test_check_goldens () =
  let dir = Filename.temp_dir "repro-check" "" in
  let golden = Filename.concat dir "test/golden" in
  Sys.mkdir (Filename.concat dir "test") 0o755;
  Sys.mkdir golden 0o755;
  let copy ?(edit = Fun.id) name =
    let text = In_channel.with_open_bin (Data.path (Filename.concat "golden" name)) In_channel.input_all in
    Out_channel.with_open_bin (Filename.concat golden name) (fun oc ->
        output_string oc (edit text))
  in
  Fun.protect ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat golden f)) (Array.to_list (Sys.readdir golden));
      List.iter Sys.rmdir [ golden; Filename.concat dir "test"; dir ])
  @@ fun () ->
  let ids = [ "check"; "ckpt-incr"; "reverify"; "recovery" ] in
  List.iter copy [ "ckpt_incr_stats.txt"; "reverify_stats.txt"; "recovery_stats.txt" ];
  let code, out, _ = run ~cwd:dir ids in
  Alcotest.(check int) ("clean goldens pass:\n" ^ out) 0 code;
  List.iter
    (copy ~edit:(fun t -> "planted line\n" ^ t))
    [ "reverify_stats.txt"; "recovery_stats.txt" ];
  let code, out, _ = run ~cwd:dir ids in
  Alcotest.(check int) "a changed golden line fails" 1 code;
  let fails =
    List.filter (String.starts_with ~prefix:"FAIL") (String.split_on_char '\n' out)
  in
  Alcotest.(check (list string))
    "failed steps"
    [
      "FAIL  reverify: golden test/golden/reverify_stats.txt";
      "FAIL  recovery: golden test/golden/recovery_stats.txt";
    ]
    fails

(* The full [repro check], from a directory laid out like the
   repository root (test/dune stages golden/ and corpus/ next to the
   test binaries): every golden, shard count, replay and grep line. *)
let test_check_all () =
  let code, out, err = run ~cwd:(Data.path "..") [ "check" ] in
  Alcotest.(check int) (Printf.sprintf "exit code of repro check:\n%s%s" out err) 0 code

(* Every example runs to completion: they drive the public API end to
   end (nf_isolation runs the Maglev NF), and nothing else runs them. *)
let examples = [ "quickstart"; "nf_isolation"; "secure_store"; "firewall_checkpoint"; "session_rpc" ]

let test_examples_exit_0 () =
  List.iter
    (fun name ->
      let prog = Data.path (Printf.sprintf "../examples/%s.exe" name) in
      let code, out, err = run ~prog [] in
      Alcotest.(check int) (Printf.sprintf "exit code of %s:\n%s%s" name out err) 0 code)
    examples

let () =
  Alcotest.run "cli"
    [
      ( "errors",
        [
          Alcotest.test_case "unknown ids exit 1 (run, check)" `Quick test_unknown_ids;
          Alcotest.test_case "shard counts outside 1..queues exit 1" `Quick test_bad_shards;
          Alcotest.test_case "bad cell and flag combinations exit 1" `Quick test_bad_requests;
          Alcotest.test_case "recover without its corpus exits 1" `Quick
            test_recover_needs_corpus;
        ] );
      ( "table",
        [
          Alcotest.test_case "deterministic surfaces are well-formed" `Quick
            test_table_well_formed;
          Alcotest.test_case "check fails on a changed golden line" `Quick test_check_goldens;
          Alcotest.test_case "virtual-clock experiments print their golden, reverify begins with it"
            `Quick test_one_configuration;
          Alcotest.test_case "every determinism check passes" `Quick test_check_all;
          Alcotest.test_case "run gives each experiment its own telemetry" `Quick
            test_run_isolates_telemetry;
        ] );
      ("examples", [ Alcotest.test_case "every example exits 0" `Quick test_examples_exit_0 ]);
    ]
