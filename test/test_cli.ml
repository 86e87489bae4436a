(* The `repro` command line: its error paths, the experiment table it
   is built from, and `repro check` itself. The binary is run as a
   child process, the way a user or CI runs it. *)

module R = Experiments.Registry

let repro = Filename.concat (Sys.getcwd ()) "../bin/repro.exe"

(* [(exit code, stdout, stderr)] of [repro args], run in [cwd]. *)
let run ?(cwd = ".") args =
  let here = Sys.getcwd () in
  Sys.chdir cwd;
  let out, inp, err =
    Fun.protect
      ~finally:(fun () -> Sys.chdir here)
      (fun () -> Unix.open_process_args_full repro (Array.of_list (repro :: args)) [||])
  in
  close_out inp;
  let o = In_channel.input_all out and e = In_channel.input_all err in
  let code =
    match Unix.close_process_full (out, inp, err) with
    | Unix.WEXITED c -> c
    | _ -> Alcotest.failf "repro %s was killed" (String.concat " " args)
  in
  (code, o, e)

let expect_error args stderr =
  let code, out, err = run args in
  let cmd = String.concat " " args in
  Alcotest.(check int) ("exit code of repro " ^ cmd) 1 code;
  Alcotest.(check string) ("stdout of repro " ^ cmd) "" out;
  Alcotest.(check string) ("stderr of repro " ^ cmd) (stderr ^ "\n") err

let det_entries = List.filter_map (fun (e : R.entry) -> Option.map (fun d -> (e, d)) e.det) R.all

let test_unknown_ids () =
  (* run, stats and check share one resolver. *)
  List.iter
    (fun cmd -> expect_error [ cmd; "bogus-id" ] "unknown experiment(s): bogus-id")
    [ "run"; "stats"; "check" ];
  expect_error [ "stats"; "fig2"; "nope"; "bogus-id" ] "unknown experiment(s): nope, bogus-id";
  expect_error [ "check"; "fig2" ] "repro check: fig2 has no deterministic surface"

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
  expect_error
    [ "scale"; "--stats-only"; "--cell"; "bogus" ]
    "repro scale: unknown cell bogus (cells: direct, isolated)";
  expect_error [ "scale"; "--shards"; "2" ] "repro scale: --shards and --cell need --stats-only";
  expect_error [ "fig2"; "--stats-only" ] "repro fig2: no deterministic surface (--stats-only)"

let test_table_well_formed () =
  Alcotest.(check int) "experiments with a deterministic surface" 8 (List.length det_entries);
  List.iter
    (fun ((e : R.entry), (d : R.det)) ->
      let names = List.map fst d.cells in
      if names = [] || List.length (List.sort_uniq compare names) <> List.length names then
        Alcotest.failf "%s: cells must be non-empty and distinct" e.id;
      if d.shards = [] || List.exists (fun n -> n < 1 || n > d.queues) d.shards then
        Alcotest.failf "%s: shard counts must lie in 1..%d" e.id d.queues;
      Option.iter
        (fun g ->
          if not (Sys.file_exists (Filename.concat ".." g)) then
            Alcotest.failf "%s: golden %s is missing" e.id g)
        d.golden;
      List.iter (fun re -> ignore (Str.regexp re)) (d.require @ d.forbid))
    det_entries

(* [repro check] against a scratch copy of the goldens: clean copies
   pass, one changed golden line fails the golden step (and only it). *)
let test_check_goldens () =
  let dir = Filename.temp_dir "repro-check" "" in
  let golden = Filename.concat dir "test/golden" in
  Sys.mkdir (Filename.concat dir "test") 0o755;
  Sys.mkdir golden 0o755;
  let copy ?(edit = Fun.id) name =
    let text = In_channel.with_open_bin (Filename.concat "golden" name) In_channel.input_all in
    Out_channel.with_open_bin (Filename.concat golden name) (fun oc ->
        output_string oc (edit text))
  in
  Fun.protect ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat golden f)) (Array.to_list (Sys.readdir golden));
      List.iter Sys.rmdir [ golden; Filename.concat dir "test"; dir ])
  @@ fun () ->
  copy "ckpt_incr_stats.txt";
  copy "reverify_stats.txt";
  let code, out, _ = run ~cwd:dir [ "check"; "ckpt-incr"; "reverify" ] in
  Alcotest.(check int) ("clean goldens pass:\n" ^ out) 0 code;
  copy "reverify_stats.txt" ~edit:(fun t -> "planted line\n" ^ t);
  let code, out, _ = run ~cwd:dir [ "check"; "ckpt-incr"; "reverify" ] in
  Alcotest.(check int) "a changed golden line fails" 1 code;
  let fails =
    List.filter (String.starts_with ~prefix:"FAIL") (String.split_on_char '\n' out)
  in
  Alcotest.(check (list string))
    "failed steps"
    [ "FAIL  reverify/stats: golden test/golden/reverify_stats.txt" ]
    fails

let () =
  Alcotest.run "cli"
    [
      ( "errors",
        [
          Alcotest.test_case "unknown ids exit 1 (run, stats, check)" `Quick test_unknown_ids;
          Alcotest.test_case "shard counts outside 1..queues exit 1" `Quick test_bad_shards;
          Alcotest.test_case "bad cell and flag combinations exit 1" `Quick test_bad_requests;
        ] );
      ( "table",
        [
          Alcotest.test_case "deterministic surfaces are well-formed" `Quick
            test_table_well_formed;
          Alcotest.test_case "check fails on a changed golden line" `Quick test_check_goldens;
        ] );
    ]
