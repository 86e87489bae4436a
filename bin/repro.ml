(* The `repro` command-line tool: run any of the paper's experiments by
   id. `repro list` enumerates them; `repro run fig2 fig3` reproduces
   Figure 2 and Figure 3; `repro <id>` prints one experiment's golden
   and then its wall-clock section, if it has one; `repro <id>
   --stats-only` prints the golden part alone; `repro check` runs every
   determinism check. All of it is derived from the one table in
   Experiments.Registry. *)

open Cmdliner
module R = Experiments.Registry

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

(* The one id resolver behind run and check: every named id
   must exist; naming none selects them all. *)
let resolve = function
  | [] -> R.all
  | ids -> (
    match List.filter (fun id -> R.find id = None) ids with
    | [] -> List.filter_map R.find ids
    | missing -> fail "unknown experiment(s): %s" (String.concat ", " missing))

let ids =
  let doc = "Experiment ids (see $(b,repro list)); all when omitted." in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

(* An experiment's one configuration: its deterministic printer at one
   shard (the golden), then its wall-clock section. *)
let run_entry (e : R.entry) =
  e.det.print ~shards:1;
  Option.iter (fun wall -> print_newline (); wall ()) e.wall

let list_cmd =
  let doc = "List the available experiments (one per paper table/figure)." in
  let run () =
    List.iter (fun (e : R.entry) -> Printf.printf "%-16s %s\n" e.id e.description) R.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run experiments (all of them when none is named)." in
  let run ids =
    List.iteri
      (fun i (e : R.entry) ->
        if i > 0 then print_newline ();
        Printf.printf "==== %s: %s ====\n" e.id e.description;
        run_entry e)
      (resolve ids)
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ ids)

(* --- One subcommand per registry entry ---------------------------------- *)

let experiment_cmd (e : R.entry) =
  let stats_only =
    let doc =
      "Print only the deterministic output (no wall clock, no shard count anywhere), so runs \
       with different shard counts, repeated runs and the committed golden diff byte-for-byte."
    in
    Arg.(value & flag & info [ "stats-only" ] ~doc)
  in
  let shards =
    let doc = "With $(b,--stats-only): the shard (domain) counts to run in turn (default 1)." in
    Arg.(value & opt (some (list int)) None & info [ "shards" ] ~docv:"N,N,..." ~doc)
  in
  (* Bad requests are clean CLI errors, not engine exceptions. *)
  let run stats_only shards =
    match (stats_only, shards) with
    | false, None -> run_entry e
    | false, Some _ -> fail "repro %s: --shards needs --stats-only" e.id
    | true, shards ->
      let d = e.det in
      let shards = Option.value shards ~default:[ 1 ] in
      List.iter
        (fun n ->
          if n < 1 || n > d.queues then
            fail "repro %s: invalid shard count %d (need 1 <= shards <= queues = %d)" e.id n
              d.queues)
        shards;
      List.iter (fun n -> d.print ~shards:n) shards
  in
  Cmd.v (Cmd.info e.id ~doc:e.description) Term.(const run $ stats_only $ shards)

(* --- repro check -------------------------------------------------------- *)

let first_diff expected got =
  let rec go i = function
    | [], [] -> None
    | x :: xs, y :: ys when String.equal x y -> go (i + 1) (xs, ys)
    | x, y ->
      let line = function l :: _ -> l | [] -> "<end of output>" in
      Some (Printf.sprintf "line %d:\n    - %s\n    + %s" i (line x) (line y))
  in
  go 1 (String.split_on_char '\n' expected, String.split_on_char '\n' got)

let grep re out =
  let re = Str.regexp re in
  List.filter
    (fun l -> match Str.search_forward re l 0 with _ -> true | exception Not_found -> false)
    (String.split_on_char '\n' out)

let check_cmd =
  let doc =
    "Run every determinism check of the named experiments (all of them when none is named), \
     from the repository root: the deterministic printer at each of its shard counts, \
     diffed against the first; a replay; the golden; the lines that must or must not \
     appear. Every run is a child process. Exits 1 if any step fails."
  in
  let steps = ref 0 and failed = ref 0 in
  let step label problem =
    incr steps;
    match problem with
    | None -> Printf.printf "ok    %s\n%!" label
    | Some p ->
      incr failed;
      Printf.printf "FAIL  %s\n    %s\n%!" label p
  in
  (* One [--stats-only] run in a child process, so runs share no state. *)
  let capture (e : R.entry) n =
    let exe = Sys.executable_name in
    let args = [| exe; e.id; "--stats-only"; "--shards"; string_of_int n |] in
    let ic = Unix.open_process_args_in exe args in
    let out = In_channel.input_all ic in
    if Unix.close_process_in ic = Unix.WEXITED 0 then Ok out
    else Error (String.concat " " (Array.to_list args) ^ " failed")
  in
  let check_entry (e : R.entry) =
    let d = e.det and n0 = List.hd e.det.shards in
    let step label = step (e.id ^ ": " ^ label) in
    match capture e n0 with
    | Error msg -> step "run" (Some msg)
    | Ok base ->
      let same label expected got =
        step label
          (match (expected, got) with
          | Ok x, Ok y -> first_diff x y
          | Error m, _ | _, Error m -> Some m)
      in
      if d.replay then same "replay" (Ok base) (capture e n0);
      List.iter
        (fun n -> same (Printf.sprintf "%d shards = %d" n n0) (Ok base) (capture e n))
        (List.tl d.shards);
      let g = R.golden e.id in
      let read () = In_channel.with_open_bin g In_channel.input_all in
      same ("golden " ^ g) (try Ok (read ()) with Sys_error m -> Error m) (Ok base);
      List.iter
        (fun re ->
          step ("some line matches /" ^ re ^ "/")
            (if grep re base = [] then Some "no such line" else None))
        d.require;
      List.iter
        (fun re ->
          step ("no line matches /" ^ re ^ "/")
            (match grep re base with [] -> None | l :: _ -> Some l))
        d.forbid
  in
  let run ids =
    List.iter check_entry (resolve ids);
    Printf.printf "check: %d step(s), %d failed\n" !steps !failed;
    if !failed > 0 then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ ids)

let verify_cmd =
  let doc =
    "Parse a Mir source file (see examples/programs/*.mir) and verify it: linearity \
     (ownership) checking plus information-flow analysis, with the strategy chosen by the \
     program's dialect unless overridden."
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Mir source file.")
  in
  let strategy =
    let strategy_conv =
      Arg.enum
        [
          ("exact", Ifc.Verifier.Exact);
          ("compositional", Ifc.Verifier.Compositional);
          ("incremental", Ifc.Verifier.Incremental);
          ("naive", Ifc.Verifier.Naive_no_alias);
          ("andersen", Ifc.Verifier.Andersen);
        ]
    in
    Arg.(
      value
      & opt (some strategy_conv) None
      & info [ "strategy"; "s" ] ~docv:"STRATEGY"
          ~doc:"Analysis strategy: exact, compositional, incremental, naive, or andersen.")
  in
  let execute =
    Arg.(
      value & flag
      & info [ "execute"; "x" ]
          ~doc:"Also run the program and report the dynamic events/leaks (ground truth).")
  in
  let run strategy execute file =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Ifc.Parse.program source with
    | Error e ->
      Printf.eprintf "%s: %s\n" file (Ifc.Parse.error_to_string e);
      exit 2
    | Ok program -> (
      match Ifc.Verifier.verify ?strategy program with
      | Error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 2
      | Ok report ->
        Format.printf "%s:@.%a@." file Ifc.Verifier.pp_report report;
        if execute then begin
          match Ifc.Interp.run program with
          | outcome ->
            Printf.printf "dynamic: %d output event(s), %d leak(s)\n"
              (List.length outcome.Ifc.Interp.events)
              (List.length outcome.Ifc.Interp.leaks);
            List.iter
              (fun (leak : Ifc.Interp.event) ->
                Printf.printf "  LEAK at line %d on `%s': taint %s\n" leak.Ifc.Interp.eline
                  leak.Ifc.Interp.channel
                  (Ifc.Label.to_string (Ifc.Interp.event_taint leak)))
              outcome.Ifc.Interp.leaks
          | exception Ifc.Interp.Runtime_error { line; message } ->
            Printf.printf "dynamic: trapped at line %d: %s\n" line message
        end;
        (match report.Ifc.Verifier.verdict with
        | Ifc.Verifier.Verified -> exit 0
        | Ifc.Verifier.Rejected -> exit 1))
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ strategy $ execute $ file)

let () =
  let doc =
    "Reproduce the evaluation of 'System Programming in Rust: Beyond Safety' (HotOS '17)"
  in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  (* An experiment that cannot run (say, recover's corpus is missing)
     raises [Failure]: a one-line error and exit 1, not a backtrace. *)
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group info
            ([ list_cmd; run_cmd; check_cmd ]
            @ List.map experiment_cmd R.all
            @ [ verify_cmd ]))
     with Failure m ->
       prerr_endline ("repro: " ^ m);
       1)
